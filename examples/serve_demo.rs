//! Serving demo: a real edge↔server round-trip over TCP on localhost.
//!
//! The demo trains a small MTL-Split model, splits it into its deployment
//! halves, puts the task heads behind an `InferenceServer` listening on a
//! real TCP socket, and runs the backbone in a separate client thread that
//! ships framed `Z_b` payloads across the loopback interface. It then checks
//! that the served predictions match a monolithic in-process forward pass to
//! 1e-6 — the split moves computation, never changes it.
//!
//! Run with:
//! ```text
//! cargo run --release -p mtlsplit --example serve_demo
//! ```
//!
//! Set `MTLSPLIT_TRACE=/path/to/trace.json` to enable the zero-allocation
//! tracing spans and write a Chrome `trace_event` file (open it in
//! `chrome://tracing` or Perfetto) covering training, the server-side
//! decode/forward/encode phases and the client round-trip.

use std::error::Error;
use std::net::TcpListener;
use std::sync::Arc;

use mtlsplit_core::{deploy, trainer, TrainConfig};
use mtlsplit_data::shapes::ShapesConfig;
use mtlsplit_models::BackboneKind;
use mtlsplit_obs as obs;
use mtlsplit_serve::{
    EdgeClient, InferenceServer, MuxServer, ServeMetrics, ServerConfig, TcpTransport,
};
use mtlsplit_split::{Precision, TensorCodec};
use mtlsplit_tensor::Tensor;

fn main() -> Result<(), Box<dyn Error>> {
    let trace_path = std::env::var_os("MTLSPLIT_TRACE");
    if trace_path.is_some() {
        obs::set_enabled(true);
        println!("tracing enabled (MTLSPLIT_TRACE set)");
    }
    // 1. Train a small two-task model on the synthetic shapes corpus.
    let dataset = ShapesConfig {
        samples: 400,
        image_size: 16,
        noise_fraction: 0.1,
    }
    .generate_table1_tasks(7)?;
    let (train, test) = dataset.split(0.8, 7)?;
    let config = TrainConfig {
        epochs: 2,
        batch_size: 32,
        learning_rate: 3e-3,
        head_hidden: 32,
        seed: 7,
        ..TrainConfig::default()
    };
    println!(
        "training a {} model on {} samples ...",
        BackboneKind::MobileStyle,
        train.len()
    );
    let outcome = trainer::train_mtl(BackboneKind::MobileStyle, &train, &test, &config)?;
    let model = outcome.model;

    // 2. Monolithic reference: run the intact model on a held-out batch
    //    through the immutable &self inference path.
    let sample = test.images().slice_batch(0, 8)?;
    let (_, reference) = model.infer_forward(&sample)?;
    let task_names = model.task_names().to_vec();

    // 3. Split the trained model into its deployment halves. The parameters
    //    move, so the served system is the same function.
    let (edge, server_half) = deploy::split_for_serving(model);
    println!(
        "deploying: backbone ({} params) on the edge, {} heads ({} params) behind the server",
        edge.parameter_count(),
        server_half.task_count(),
        server_half.parameter_count()
    );

    // 4. Server side: the frozen heads go into an Arc shared by four worker
    //    threads, every worker running &self inference — fronted by the
    //    non-blocking multiplexed poller on a real TCP socket.
    let server = Arc::new(InferenceServer::start(
        server_half.into_layers(),
        ServerConfig::default().with_max_batch(8).with_workers(4),
    ));
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mux = MuxServer::spawn(Arc::clone(&server), listener)?;
    let addr = mux.local_addr();
    println!(
        "inference server listening on {addr} with {} workers",
        server.config().workers
    );

    // 5. Edge side, in its own thread: backbone + codec + TCP transport.
    //    Besides inference, the client scrapes the server's live metrics
    //    over the same socket (a `MetricsRequest` frame).
    let client_thread =
        std::thread::spawn(move || -> Result<(Vec<Tensor>, ServeMetrics), String> {
            let transport = TcpTransport::connect(addr).map_err(|e| e.to_string())?;
            let mut client = EdgeClient::new(
                edge.into_layer(),
                TensorCodec::new(Precision::Float32),
                Box::new(transport),
            );
            client.ping().map_err(|e| e.to_string())?;
            let outputs = client.infer(&sample).map_err(|e| e.to_string())?;
            let scraped = client.metrics().map_err(|e| e.to_string())?;
            Ok((outputs, scraped))
        });
    let (served, scraped) = client_thread.join().expect("client thread")?;

    // 6. The served outputs must match the monolithic ones to 1e-6.
    for ((name, direct), remote) in task_names.iter().zip(&reference).zip(&served) {
        let max_err = direct
            .as_slice()
            .iter()
            .zip(remote.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            remote.allclose(direct, 1e-6),
            "task {name}: served output diverged (max err {max_err})"
        );
        println!("task {name:<12} served == monolithic (max |err| = {max_err:.2e})");
    }

    println!("server metrics: {}", server.metrics().summary());
    println!("scraped over the wire: {}", scraped.summary());
    println!("phase breakdown: {}", scraped.phase_summary());
    assert_eq!(
        scraped.requests,
        server.metrics().requests,
        "wire-scraped request count must match the in-process snapshot"
    );
    mux.stop();

    // 7. When tracing was requested, export and validate the Chrome trace.
    if let Some(path) = trace_path {
        let json = obs::chrome_trace_json();
        let summary = obs::validate_chrome_trace(&json).map_err(std::io::Error::other)?;
        std::fs::write(&path, &json)?;
        println!(
            "trace: {} events over {} threads -> {}",
            summary.events,
            summary.threads,
            path.to_string_lossy()
        );
    }
    println!("ok: real TCP round-trip matched the monolithic forward pass");
    Ok(())
}
