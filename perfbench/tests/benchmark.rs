//! The benchmark's own checks: the rebuilt compositions equal the library
//! ones bit for bit, every workload completes a few correct ops, and the
//! metric catalogue obeys the naming rules and matches `BENCHMARK.json`.

use eos_core::{extract_embeddings, PipelineConfig, ThreePhase};
use eos_data::SynthSpec;
use eos_nn::{Architecture, ConvNet, CrossEntropyLoss, Layer, Loss, LossKind, Sgd};
use eos_tensor::{normal, Rng64};
use perfbench::rebuild::{self, Rebuilt};
use perfbench::report::{per_layer, valid_name, END_TO_END};
use perfbench::workloads::heads::{head_predict, lineup};
use perfbench::workloads::train::{rebuilt_matches_convnet, resnet_dims};
use perfbench::workloads::{self, same_bits};
use perfbench::{Opts, KEPT, WORKLOADS};

#[test]
fn rebuilt_list_reproduces_convnet_forward_and_infer() {
    for seed in [1, 7, 42] {
        let x = normal(&[5, 3 * 8 * 8], 0.0, 1.0, &mut Rng64::new(seed + 100));
        assert!(
            rebuilt_matches_convnet(seed, &x, (3, 8, 8), 10),
            "seed {seed}"
        );
    }
}

#[test]
fn rebuilt_list_trains_in_lockstep_with_convnet() {
    let cfg = PipelineConfig::small();
    let (bps, width) = resnet_dims(&cfg);
    let mut net = ConvNet::new(cfg.arch, (3, 8, 8), 4, &mut Rng64::new(3));
    let mut copy = Rebuilt::resnet((3, 8, 8), bps, width, 4, &mut Rng64::new(3));
    let (mut opt, mut copy_opt) = (Sgd::new(0.05, 0.9, 5e-4), Sgd::new(0.05, 0.9, 5e-4));
    let ce = CrossEntropyLoss::new();
    let mut rng = Rng64::new(9);
    let mut ms = [0.0; 8];
    for _ in 0..4 {
        let x = normal(&[8, 192], 0.0, 1.0, &mut rng);
        let y: Vec<usize> = (0..8).map(|i| i % 4).collect();
        net.zero_grad();
        copy.zero_grad();
        let a = net.forward(&x, true);
        let b = copy.forward_timed(&x, true, &mut ms);
        assert!(same_bits(a.data(), b.data()));
        let _ = net.backward(&ce.loss_and_grad(&a, &y).1);
        let _ = copy.backward_timed(&ce.loss_and_grad(&b, &y).1, &mut ms);
        opt.step_visit(&mut net);
        copy_opt.step_visit(&mut copy);
    }
    assert!(ms.iter().all(|&t| t > 0.0), "every child was timed: {ms:?}");
}

#[test]
fn rebuilt_finetune_head_reproduces_finetune_and_eval() {
    let mut spec = SynthSpec::celeba_like(1);
    spec.n_max_train = 60;
    spec.n_test_per_class = 12;
    let (train, test) = spec.generate(5);
    let mut cfg = PipelineConfig::small();
    cfg.arch = Architecture::ResNet {
        blocks_per_stage: 1,
        width: 4,
    };
    cfg.backbone_epochs = 2;
    cfg.head_epochs = 2;
    let mut tp = ThreePhase::train(&train, LossKind::Ce, &cfg, &mut Rng64::new(5));
    let nc = tp.num_classes;
    for (spec, sampler) in lineup() {
        let mut rng = Rng64::new(11);
        let replay = rng.clone();
        let r = tp.finetune_and_eval(sampler.as_ref(), &test, &cfg, &mut rng);
        let (mut head, by, split) = rebuild::finetune_head(
            &tp.train_fe,
            &tp.train_y,
            nc,
            sampler.as_ref(),
            &cfg,
            &mut replay.clone(),
        );
        let fe = extract_embeddings(&mut tp.net, &test.x);
        assert_eq!(
            head_predict(&mut head, &fe),
            r.predictions,
            "{}",
            spec.name()
        );
        assert!(same_bits(head.weight().data(), tp.net.head.weight().data()));
        assert_eq!(split.rows, by.len());
    }
}

#[test]
fn every_workload_completes_a_few_correct_ops() {
    let opts = Opts {
        seed: 3,
        seconds: 0.05,
    };
    let names: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
    for w in WORKLOADS {
        let o = workloads::run(w, &opts).expect("known workload");
        assert!(o.correct && o.failed == 0 && o.attempted >= 1, "{w}: {o:?}");
        let got: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, names, "{w}");
        assert_eq!(o.get("ok_rate"), Some(1.0));
        assert!(
            o.metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{w}: {o:?}"
        );
    }
    assert!(workloads::run("nope", &opts).is_none());
}

#[test]
fn traced_pass_reports_every_per_layer_metric() {
    let o = workloads::traced(&Opts {
        seed: 4,
        seconds: 0.4,
    });
    assert!(o.correct && o.failed == 0, "{o:?}");
    let got: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
    let want = per_layer();
    let want: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    let (mut got_sorted, mut want_sorted) = (got.clone(), want.clone());
    got_sorted.sort_unstable();
    want_sorted.sort_unstable();
    assert_eq!(got_sorted, want_sorted);
    assert!(o.metrics.iter().all(|m| m.value.is_finite()), "{o:?}");
}

#[test]
fn metric_names_follow_the_rules_and_match_benchmark_json() {
    let per_layer = per_layer();
    assert!(END_TO_END.len() <= 16 && per_layer.len() <= 128);
    let mut names: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
    names.extend(per_layer.iter().map(|(n, _)| n.as_str()));
    for n in &names {
        assert!(valid_name(n), "{n}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate metric names");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    assert!(eos_trace::validate(&json).is_ok());
    let declared: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    let kept = KEPT.len();
    assert_eq!(declared[..kept], KEPT[..], "BENCHMARK.json keeps KEPT");
    assert!(KEPT.iter().all(|w| WORKLOADS.contains(w)));
    assert_eq!(declared[kept..], names[..]);
    for (n, unit) in END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer.iter().cloned())
    {
        assert!(
            json.contains(&format!("\"name\": \"{n}\", \"unit\": \"{unit}\"")),
            "{n} must be declared with unit {unit}"
        );
    }
}
