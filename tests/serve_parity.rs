//! Train/serve parity: a served model makes exactly the decisions the
//! offline pipeline makes with the same model.
//!
//! The served path is the daemon's one path: exported IR → `WireNode` →
//! an encoded `Predict` frame → `serve_connection` → arena rows decoded
//! straight from the JSON → compiled evaluation → `DecisionTree::predict`.
//! The offline path is the one `fegen_bench::methods` deploys with:
//! `FeatureSearch::feature_matrix` over the exported IR, then the same
//! tree. Both must agree on every loop of the quick suite, including the
//! loops where a feature fails and is answered with the deployment default
//! `0.0`.

mod common;

use fegen::bench::stages::paper_features;
use fegen::bench::{try_build_suite_data, ExperimentConfig};
use fegen::core::gp::transport::duplex;
use fegen::core::serve::{
    decode_response, encode_request, serve_connection, ModelArtifact, ServeEngine, ServeOptions,
    ServeRequest, ServeResponse, WireNode, MAX_BATCH, SERVE_PROTOCOL,
};
use fegen::core::{parse_feature, FeatureSearch, FrameTransport, Telemetry, TrainingExample};
use fegen::suite::SuiteConfig;
use std::sync::Arc;

#[test]
fn served_decisions_equal_offline_predictions_on_every_quick_suite_loop() {
    let mut config = ExperimentConfig::quick();
    config.suite = SuiteConfig::tiny();
    let training = try_build_suite_data(&config).unwrap().training_examples();
    // Exported loops are shallow, so no sensible feature exhausts the quick
    // preset's budget. Under this one, the summed subtree sizes below cost
    // ~280 steps on the smallest loops and ~580 on the largest training
    // loops: the feature fails on the larger loops of both sets only.
    config.search.eval_budget_per_example = 500;
    let mut features = paper_features();
    let failing = parse_feature("sum(//*, count(//*))").expect("feature parses");
    features.push(failing.clone());
    let artifact =
        ModelArtifact::train(&config.search, &features, &training).expect("artifact trains");

    let loops: Vec<TrainingExample> = common::suite_loops(&SuiteConfig::quick())
        .into_iter()
        .map(|ir| TrainingExample {
            ir,
            cycles: Vec::new(),
        })
        .collect();
    let budget = config.search.eval_budget_per_example;
    for (set, examples) in [("training", &training), ("quick suite", &loops)] {
        let failures = examples
            .iter()
            .filter(|e| failing.eval_with_budget(&e.ir, budget).is_err())
            .count();
        assert!(
            0 < failures && failures < examples.len(),
            "`{failing}` fails on {failures} of {} {set} loops; the test needs some, not all",
            examples.len()
        );
    }

    let search = FeatureSearch::from_examples(&training, config.search.clone());
    let offline: Vec<usize> = search
        .feature_matrix(&features, &loops)
        .iter()
        .map(|row| artifact.tree.predict(row))
        .collect();
    let pool = search.pool(&loops);
    let offline_failures = features
        .iter()
        .flat_map(|f| (0..loops.len()).map(|i| pool.eval(f, i, budget)))
        .filter(Result::is_err)
        .count() as u64;

    let dir = std::env::temp_dir().join(format!("fegen-serve-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("model.fgm");
    artifact.save(&path).expect("artifact saves");
    let engine = Arc::new(
        ServeEngine::new(path, ServeOptions::default(), Telemetry::disabled())
            .expect("engine starts"),
    );
    let (mut client, mut server) = duplex();
    let daemon = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || serve_connection(&mut server, &engine))
    };
    let mut ask = |request: &ServeRequest| {
        client
            .send(&encode_request(request).expect("request encodes"))
            .expect("request sends");
        decode_response(&client.recv().expect("reply arrives")).expect("reply decodes")
    };
    let hello = ask(&ServeRequest::Hello {
        protocol: SERVE_PROTOCOL,
    });
    assert!(matches!(hello, ServeResponse::HelloAck { .. }), "{hello:?}");
    let batch = 256;
    assert!(batch <= MAX_BATCH);
    let mut served = Vec::with_capacity(loops.len());
    for (id, chunk) in loops.chunks(batch).enumerate() {
        let wire: Vec<WireNode> = chunk.iter().map(|e| WireNode::from_ir(&e.ir)).collect();
        let id = id as u64;
        match ask(&ServeRequest::Predict { id, loops: wire }) {
            ServeResponse::Decisions { id: got, decisions } => {
                assert_eq!(got, id);
                assert_eq!(decisions.len(), chunk.len());
                served.extend(decisions.iter().map(|d| d.unroll));
            }
            other => panic!("batch {id}: expected Decisions, got {other:?}"),
        }
    }
    drop(client);
    daemon
        .join()
        .expect("daemon thread")
        .expect("connection closes cleanly");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(served.len(), offline.len());
    if let Some(i) = (0..served.len()).find(|&i| served[i] != offline[i]) {
        panic!(
            "loop {i}: served {} but offline predicts {}\n{}",
            served[i],
            offline[i],
            loops[i].ir.dump()
        );
    }
    assert_eq!(
        engine.stats().feature_failures,
        offline_failures,
        "the served path must fail on exactly the offline path's (loop, feature) pairs"
    );
}
