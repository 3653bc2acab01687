//! The traced run: the same seeded inputs replayed with each layer timed
//! from outside, by calling that layer's public functions. The program
//! itself runs untraced; these spans live in the benchmark.
//!
//! Query-path metrics are microseconds per query of the replayed stream,
//! counting a layer only where the route calls it (0 where it is off the
//! path), so for the mean query
//!
//! ```text
//! serve.rtt_us      = serve.overhead_us + serve.elapsed_us
//! serve.overhead_us = serve.encode_us + serve.decode_us + serve.unattributed_us
//! serve.elapsed_us  = sql.parse_us + route.decide_us + live.fingerprint_us
//!                   + query.sample_exec_us + query.replicates_exec_us
//!                   + bn.point_probability_us + query.unattributed_us
//! ```
//!
//! and for the mean ingest batch
//!
//! ```text
//! session.ingest_ms = live.grow_relation_ms + aggregates.incidence_extend_ms
//!                   + ingest.ipf_ms + ingest.structure_ms + ingest.parameters_ms
//!                   + session.ingest_unattributed_ms
//! ```

use crate::inputs::{engine, Inputs, GROUPED_QUERIES, TABLE};
use crate::load::{
    connect, same_result, server_config, session, with_server, LoadReport, Workload,
};
use crate::report::{self, mean, median, Outcome};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use themis_aggregates::IncidenceMatrix;
use themis_bn::parameters::learn_parameters;
use themis_bn::sampling::forward_samples;
use themis_bn::{learn_structure, point_probability, BayesianNetwork};
use themis_core::{ReweightMethod, RouteKind, Themis, ThemisSession};
use themis_data::{AttrId, Relation};
use themis_query::{execute_parallel, Catalog};
use themis_reweight::{ipf_on_incidence, IpfOptions};
use themis_serve::protocol::{answer_body, decode_answer, request_line};
use themis_serve::Json;

/// Times of one cold world build, split by layer.
#[derive(Debug, Default, Clone, Copy)]
struct BuildParts {
    incidence_build_ms: f64,
    ipf_ms: f64,
    ipf_sweeps: f64,
    structure_ms: f64,
    parameters_ms: f64,
    simulate_ms: f64,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

fn ipf_options(inputs: &Inputs) -> Result<IpfOptions, String> {
    match &inputs.config.reweighting {
        ReweightMethod::Ipf(opts) => Ok(opts.clone()),
        other => Err(format!(
            "the benchmark's model reweights with IPF, not {other:?}"
        )),
    }
}

/// A cold build's learning steps, replayed outside the model.
struct Learned {
    /// The sample with its IPF weights.
    sample: Relation,
    /// The parent sets one structure search picked.
    searched: Vec<Vec<AttrId>>,
    /// The network fitted on the model's structure.
    bn: BayesianNetwork,
}

fn parents_of(bn: &BayesianNetwork) -> Vec<Vec<AttrId>> {
    (0..bn.arity())
        .map(|i| bn.parents(AttrId(i)).to_vec())
        .collect()
}

/// IPF then BN learning on `sample`, in the step order of `Themis::build`,
/// each step timed. The parameters are fitted on `structure_of`'s parent
/// sets, so the network can be compared with that model's bit for bit.
fn learn_world(
    inputs: &Inputs,
    mut sample: Relation,
    matrix: &IncidenceMatrix,
    structure_of: &BayesianNetwork,
    parts: &mut BuildParts,
) -> Result<Learned, String> {
    let mode = inputs
        .config
        .bn_mode
        .ok_or("the benchmark's model has a BN")?;
    let options = &inputs.config.bn_options;
    let t = Instant::now();
    let (weights, ipf) = ipf_on_incidence(matrix, sample.len(), &ipf_options(inputs)?);
    parts.ipf_ms = ms(t);
    parts.ipf_sweeps = ipf.iterations as f64;
    sample.set_weights(weights);
    let t = Instant::now();
    let searched = learn_structure(
        &sample,
        &inputs.aggregates,
        inputs.population_size,
        mode.structure_source(),
        &options.structure,
    );
    parts.structure_ms = ms(t);
    let t = Instant::now();
    let bn = learn_parameters(
        &sample,
        &inputs.aggregates,
        inputs.population_size,
        parents_of(structure_of),
        mode.param_source(),
        &options.params,
    );
    parts.parameters_ms = ms(t);
    Ok(Learned {
        sample,
        searched,
        bn,
    })
}

/// Structure searches tried before deciding the model's structure is not
/// one the search reaches. A grown sample's searches can end in several
/// structures, some in 3% of searches or fewer; 64 tries missed such a
/// structure in about one run in thirty, 512 miss one reached in 1% of
/// searches with odds under 1 in 150.
const STRUCTURE_TRIES: usize = 512;

/// Check `model` against replayed cold-build steps: bit-identical IPF
/// weights, a BN structure that the structure search reaches on those
/// weights, and bit-identical BN parameters on it.
///
/// The structure search sums family scores in hash-map order, so two cold
/// builds of one sample can break a near-tie differently and pick other
/// parent sets. The check therefore asks whether the search reaches the
/// model's structure, not whether its first try does, and says on stderr
/// when it took more than one.
fn verify(inputs: &Inputs, model: &Themis, learned: &Learned) -> Result<(), String> {
    let w = model.reweighted_sample().weights();
    let same_weights = w.len() == learned.sample.len()
        && w.iter()
            .zip(learned.sample.weights())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same_weights {
        return Err("IPF weights differ from a cold build's".to_string());
    }
    let bn = model
        .bayesian_network()
        .ok_or("the benchmark's model has a BN")?;
    let target = parents_of(bn);
    let mode = inputs
        .config
        .bn_mode
        .ok_or("the benchmark's model has a BN")?;
    let mut tries = 1;
    let mut reached = learned.searched == target;
    while !reached && tries < STRUCTURE_TRIES {
        tries += 1;
        reached = learn_structure(
            &learned.sample,
            &inputs.aggregates,
            inputs.population_size,
            mode.structure_source(),
            &inputs.config.bn_options.structure,
        ) == target;
    }
    if !reached {
        return Err(format!(
            "BN structure not reached by {tries} structure searches of a cold build"
        ));
    }
    if tries > 1 {
        eprintln!("perfbench: note: a cold structure search reached the model's BN structure on try {tries}");
    }
    if themis_live::bn_parameters_moved(Some(bn), Some(&learned.bn)) {
        return Err("BN parameters differ from a cold build's".to_string());
    }
    Ok(())
}

/// Check `model` against a cold build on `sample` (unweighted).
pub fn verify_cold(inputs: &Inputs, model: &Themis, sample: Relation) -> Result<(), String> {
    let matrix = IncidenceMatrix::build(&sample, &inputs.aggregates);
    let bn = model
        .bayesian_network()
        .ok_or("the benchmark's model has a BN")?;
    let learned = learn_world(inputs, sample, &matrix, bn, &mut BuildParts::default())?;
    verify(inputs, model, &learned)
}

/// The cold build, layer by layer, `reps` times (medians reported), plus
/// the K replicates rebuilt with `forward_samples` from the model's BN,
/// config and seed — bit-identical to the session's.
fn build_layers(
    inputs: &Inputs,
    model: &Themis,
    reps: usize,
) -> Result<(BuildParts, Vec<Arc<Relation>>), String> {
    let structure = model
        .bayesian_network()
        .ok_or("the benchmark's model has a BN")?;
    let mut runs: Vec<BuildParts> = Vec::new();
    let mut replicates = Vec::new();
    for _ in 0..reps.max(1) {
        let mut parts = BuildParts::default();
        let t = Instant::now();
        let matrix = IncidenceMatrix::build(&inputs.sample, &inputs.aggregates);
        parts.incidence_build_ms = ms(t);
        let learned = learn_world(
            inputs,
            inputs.sample.clone(),
            &matrix,
            structure,
            &mut parts,
        )?;
        verify(inputs, model, &learned)?;
        let config = &inputs.config;
        let size = config.bn_sample_size.unwrap_or(learned.sample.len());
        let t = Instant::now();
        replicates = forward_samples(
            &learned.bn,
            config.k_samples,
            size,
            inputs.population_size,
            &mut SmallRng::seed_from_u64(config.seed),
        );
        parts.simulate_ms = ms(t);
        runs.push(parts);
    }
    let med = |f: fn(&BuildParts) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let parts = BuildParts {
        incidence_build_ms: med(|p| p.incidence_build_ms),
        ipf_ms: med(|p| p.ipf_ms),
        ipf_sweeps: med(|p| p.ipf_sweeps),
        structure_ms: med(|p| p.structure_ms),
        parameters_ms: med(|p| p.parameters_ms),
        simulate_ms: med(|p| p.simulate_ms),
    };
    Ok((parts, replicates.into_iter().map(Arc::new).collect()))
}

/// Per-query sums over the traced query replay (divided by `queries` at
/// the end).
#[derive(Debug, Default)]
struct QueryParts {
    queries: f64,
    rtt: Vec<f64>,
    elapsed: f64,
    encode: f64,
    decode: f64,
    bytes: f64,
    session: f64,
    parse: f64,
    decide: f64,
    fingerprint: f64,
    sample_exec: f64,
    replicates_exec: f64,
    point_probability: f64,
    rows_scanned: f64,
}

fn catalog_of(relation: &Arc<Relation>) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(TABLE, Arc::clone(relation));
    catalog
}

/// Replay the workload's query stream for `budget`: each query goes over
/// the wire to an untraced server, then through the same layers in process.
fn query_layers(
    workload: Workload,
    inputs: &Inputs,
    model: &Themis,
    replicates: &[Arc<Relation>],
    budget: Duration,
    out: &mut Outcome,
) -> Result<QueryParts, String> {
    let cache = workload.cache_entries(inputs);
    let served = Arc::new(session(model.clone(), cache));
    let mirror = session(model.clone(), cache);
    let eng = engine();
    let sample_catalog = catalog_of(model.sample_arc());
    let replicate_catalogs: Vec<Catalog> = replicates.iter().map(catalog_of).collect();
    let replicate_rows: usize = replicates.iter().map(|r| r.len()).sum();
    let bn = model
        .bayesian_network()
        .ok_or("the benchmark's model has a BN")?;
    let mut parts = QueryParts::default();

    with_server(served, server_config(1), |addr| -> Result<(), String> {
        let mut client = connect(addr, 1, 1)?;
        // The set-up's first query, so the mirror's cache and replicates
        // are in the state the served session's are in.
        let first = GROUPED_QUERIES[0];
        client
            .query(first)
            .map_err(|e| e.to_string())?
            .map_err(|e| e.message)?;
        mirror.sql_with(first, &eng).map_err(|e| e.to_string())?;

        let mut stream = workload.stream(inputs);
        let start = Instant::now();
        while start.elapsed() < budget {
            let op = stream.next().unwrap_or(0);
            let sql = workload.sql(inputs, op);

            let t = Instant::now();
            let line = client
                .roundtrip_raw(&request_line("query", sql))
                .map_err(|e| e.to_string())?;
            let raw_us = us(t);
            let t = Instant::now();
            let wire = Json::parse(&line)
                .map_err(|e| e.to_string())
                .and_then(|j| decode_answer(&j));
            let decode_us = us(t);
            let wire = wire.map_err(|e| format!("{sql}: {e}"))?;

            let t = Instant::now();
            let explain = mirror.explain_with(sql, &eng).map_err(|e| e.to_string())?;
            let explain_us = us(t);
            let t = Instant::now();
            let query = themis_sql::parse(sql).map_err(|e| e.to_string())?;
            let parse_us = us(t);
            let t = Instant::now();
            let _fp = std::hint::black_box(themis_live::plan_fingerprint(
                &query,
                &eng.limits,
                mirror.generation(),
            ));
            let fingerprint_us = us(t);

            let hits_before = mirror.live_snapshot().cache_hits;
            let t = Instant::now();
            let answer = mirror.sql_with(sql, &eng).map_err(|e| e.to_string())?;
            let session_us = us(t);
            let hit = mirror.live_snapshot().cache_hits > hits_before;

            let t = Instant::now();
            let encoded = std::hint::black_box(answer_body(&answer).to_string());
            let encode_us = us(t);

            out.record(
                if wire.route == answer.route && same_result(&wire.result, &answer.result) {
                    Ok(())
                } else {
                    Err(format!(
                        "{sql}: served answer differs from the in-process one"
                    ))
                },
            );

            parts.queries += 1.0;
            parts.rtt.push(raw_us + decode_us);
            parts.elapsed += wire.elapsed.as_secs_f64() * 1e6;
            parts.decode += decode_us;
            parts.encode += encode_us;
            parts.bytes += (encoded.len() + 1) as f64;
            parts.session += session_us;
            // With the cache on, a query is parsed to fingerprint it, and a
            // miss is parsed again on the routed path.
            let parses = match (cache.is_some(), hit) {
                (true, false) => 2.0,
                _ => 1.0,
            };
            parts.parse += parses * parse_us;
            if cache.is_some() {
                parts.fingerprint += fingerprint_us;
            }
            if hit {
                continue;
            }
            parts.decide +=
                explain_us - parse_us - if cache.is_some() { fingerprint_us } else { 0.0 };
            match explain.route {
                RouteKind::BayesNet => {
                    let point = &inputs.points[op];
                    let t = Instant::now();
                    std::hint::black_box(point_probability(bn, &point.attrs, &point.values));
                    parts.point_probability += us(t);
                }
                kind => {
                    let t = Instant::now();
                    execute_parallel(&sample_catalog, &query, &eng).map_err(|e| e.to_string())?;
                    parts.sample_exec += us(t);
                    parts.rows_scanned += model.reweighted_sample().len() as f64;
                    if kind == RouteKind::Hybrid {
                        let t = Instant::now();
                        for catalog in &replicate_catalogs {
                            execute_parallel(catalog, &query, &eng).map_err(|e| e.to_string())?;
                        }
                        parts.replicates_exec += us(t);
                        parts.rows_scanned += replicate_rows as f64;
                    }
                }
            }
        }
        Ok(())
    })??;
    Ok(parts)
}

/// Per-batch means of the ingest replay.
#[derive(Debug, Default)]
struct IngestParts {
    batches: f64,
    session: f64,
    grow: f64,
    extend: f64,
    ipf: f64,
    structure: f64,
    parameters: f64,
    moved: f64,
}

/// Replay the first `batches` ingest batches through
/// `ThemisSession::ingest` on a fresh session, and alongside through the
/// layers it calls.
fn ingest_layers(inputs: &Inputs, model: &Themis, batches: usize) -> Result<IngestParts, String> {
    let fresh = ThemisSession::with_engine(model.clone(), engine());
    let mut current = model.reweighted_sample().clone();
    let mut matrix = IncidenceMatrix::build(&current, &inputs.aggregates);
    let mut parts = IngestParts::default();
    for i in 0..batches {
        let rows = inputs.batch(i);
        let t = Instant::now();
        let report = fresh
            .ingest(TABLE, rows)
            .map_err(|e| format!("ingest batch {i}: {e}"))?;
        parts.session += ms(t);
        parts.moved += f64::from(u8::from(report.bn_moved));

        let t = Instant::now();
        let grown = themis_live::grow_relation(&current, rows).map_err(|e| e.to_string())?;
        parts.grow += ms(t);
        let t = Instant::now();
        matrix.extend(&grown, &inputs.aggregates);
        parts.extend += ms(t);
        let model = fresh.model();
        let structure = model
            .bayesian_network()
            .ok_or("the benchmark's model has a BN")?;
        let mut step = BuildParts::default();
        let learned = learn_world(inputs, grown, &matrix, structure, &mut step)?;
        parts.ipf += step.ipf_ms;
        parts.structure += step.structure_ms;
        parts.parameters += step.parameters_ms;
        verify(inputs, &model, &learned).map_err(|e| format!("batch {i}: {e}"))?;
        current = learned.sample;
        parts.batches += 1.0;
    }
    Ok(parts)
}

/// The traced run: per-layer metrics for `workload`, next to the untraced
/// load run `load` made with the same inputs.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seconds: u64,
    load: &LoadReport,
    out: &mut Outcome,
) {
    let model = Themis::build(
        inputs.sample.clone(),
        inputs.aggregates.clone(),
        inputs.population_size,
        inputs.config.clone(),
    );
    let budget = Duration::from_secs_f64((seconds as f64 / 4.0).max(1.0));
    let batches = inputs.scale.replayed_batches;
    let traced = build_layers(inputs, &model, 3).and_then(|(build, replicates)| {
        let q = query_layers(workload, inputs, &model, &replicates, budget, out)?;
        let i = ingest_layers(inputs, &model, batches)?;
        Ok((build, q, i))
    });
    let (build, q, i) = match traced {
        Ok(t) => t,
        Err(e) => return out.record(Err(e)),
    };
    out.record(Ok(()));

    let n = q.queries.max(1.0);
    let per_query = |sum: f64| sum / n;
    let rtt = mean(&q.rtt);
    let elapsed = per_query(q.elapsed);
    let overhead = rtt - elapsed;
    let query_attributed = per_query(
        q.parse
            + q.decide
            + q.fingerprint
            + q.sample_exec
            + q.replicates_exec
            + q.point_probability,
    );
    let queries_timed = load.query_rtt.len() as f64;
    out.push("serve.rtt_us", "us", rtt);
    out.push("serve.elapsed_us", "us", elapsed);
    out.push("serve.overhead_us", "us", overhead);
    out.push("serve.encode_us", "us", per_query(q.encode));
    out.push("serve.decode_us", "us", per_query(q.decode));
    out.push(
        "serve.unattributed_us",
        "us",
        overhead - per_query(q.encode) - per_query(q.decode),
    );
    out.push("serve.response_bytes", "bytes", per_query(q.bytes));
    out.push("session.query_us", "us", per_query(q.session));
    out.push("sql.parse_us", "us", per_query(q.parse));
    out.push("route.decide_us", "us", per_query(q.decide));
    out.push("live.fingerprint_us", "us", per_query(q.fingerprint));
    out.push("query.sample_exec_us", "us", per_query(q.sample_exec));
    out.push(
        "query.replicates_exec_us",
        "us",
        per_query(q.replicates_exec),
    );
    out.push(
        "bn.point_probability_us",
        "us",
        per_query(q.point_probability),
    );
    out.push("query.unattributed_us", "us", elapsed - query_attributed);
    out.push("query.rows_scanned", "count", per_query(q.rows_scanned));
    out.push(
        "route.consensus_share",
        "ratio",
        report::ratio(q.replicates_exec, q.session),
    );
    out.push(
        "live.cache_hit_rate",
        "ratio",
        report::ratio(
            load.live.cache_hits as f64,
            (load.live.cache_hits + load.live.cache_misses) as f64,
        ),
    );
    out.push(
        "live.cache_evictions_per_1k",
        "count",
        report::ratio(load.live.cache_evictions as f64 * 1e3, queries_timed),
    );
    out.push(
        "aggregates.incidence_build_ms",
        "ms",
        build.incidence_build_ms,
    );
    out.push("reweight.ipf_ms", "ms", build.ipf_ms);
    out.push("reweight.ipf_sweeps", "count", build.ipf_sweeps);
    out.push("bn.structure_ms", "ms", build.structure_ms);
    out.push("bn.parameters_ms", "ms", build.parameters_ms);
    out.push("bn.simulate_ms", "ms", build.simulate_ms);

    let b = i.batches.max(1.0);
    let per_batch = |sum: f64| sum / b;
    let ingest_attributed = per_batch(i.grow + i.extend + i.ipf + i.structure + i.parameters);
    out.push("session.ingest_ms", "ms", per_batch(i.session));
    out.push("live.grow_relation_ms", "ms", per_batch(i.grow));
    out.push("aggregates.incidence_extend_ms", "ms", per_batch(i.extend));
    out.push("ingest.ipf_ms", "ms", per_batch(i.ipf));
    out.push("ingest.structure_ms", "ms", per_batch(i.structure));
    out.push("ingest.parameters_ms", "ms", per_batch(i.parameters));
    out.push(
        "session.ingest_unattributed_ms",
        "ms",
        per_batch(i.session) - ingest_attributed,
    );
    out.push("bn.moved_ratio", "ratio", per_batch(i.moved));
    out.push(
        "live.replicates_resimulated",
        "count",
        load.live.replicates_resimulated as f64,
    );
    out.push("ingest.rtt_p50_ms", "ms", median(&load.ingest_ms));
    out.push("loadgen.ingest_lateness_ms", "ms", mean(&load.lateness_ms));
    out.push("trace.rtt_p50_us", "us", median(&q.rtt));
    out.push(
        "trace.untraced_rtt_p50_us",
        "us",
        load.query_rtt.percentile(50.0) * 1e3,
    );
    out.push(
        "trace.untraced_rtt_p99_us",
        "us",
        load.query_rtt.percentile(99.0) * 1e3,
    );
}
