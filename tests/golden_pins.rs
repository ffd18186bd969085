//! Golden pins: digests of compiled artifacts and the exact bits of the
//! Eq. 4/Eq. 5 estimates, recorded once and compared verbatim.
//!
//! The equivalence suites compare two code paths against each other;
//! once both paths share the same engine they can no longer catch a
//! change that moves both at once. These pins are an independent check:
//! each line holds the digests of a compile's program ops, routed
//! circuit and initial/final mappings, plus `ln_success.to_bits()` and
//! `exec_time_us.to_bits()`, for the paper suite at head 16/32, every
//! router/scheduler/initial-mapping policy, a d=251 repetition code,
//! threshold and periodic cooling, and the scaled QAOA-32 split.
//!
//! A deliberate change to compiler decisions or estimator arithmetic
//! must update the table below, and say why.

use tilt::benchmarks::qaoa::qaoa_maxcut;
use tilt::benchmarks::qec::repetition_code;
use tilt::benchmarks::qft::qft;
use tilt::compiler::route::{LinqConfig, StochasticConfig};
use tilt::compiler::{CompileOutput, InitialMapping, Mapping, TiltOp};
use tilt::engine::Backend;
use tilt::hash::{Fingerprint, Hasher};
use tilt::prelude::*;

fn ops_digest(ops: &[TiltOp]) -> String {
    let mut h = Hasher::new();
    h.write_usize(ops.len());
    for op in ops {
        match op {
            TiltOp::Move { to } => {
                h.write_tag(0).write_usize(*to);
            }
            TiltOp::Gate { gate, head_pos } => {
                h.write_tag(1).write_usize(*head_pos);
                gate.fingerprint_into(&mut h);
            }
        }
    }
    h.digest().to_hex()
}

fn mappings_digest(initial: &Mapping, last: &Mapping) -> String {
    let mut h = Hasher::new();
    for m in [initial, last] {
        h.write_usize(m.len());
        for &p in m.log_to_phys() {
            h.write_usize(p);
        }
    }
    h.digest().to_hex()
}

/// One pin line for a TILT compile and its estimate.
fn tilt_line(name: &str, out: &CompileOutput, ln_success: f64, exec_time_us: f64) -> String {
    format!(
        "{name} ops={} routed={} maps={} swaps={} moves={} ln={:016x} t={:016x}",
        ops_digest(out.program.ops()),
        out.routed.circuit.digest().to_hex(),
        mappings_digest(&out.routed.initial_mapping, &out.routed.final_mapping),
        out.report.swap_count,
        out.report.move_count,
        ln_success.to_bits(),
        exec_time_us.to_bits(),
    )
}

/// The in-memory per-pass flow: `Compiler::compile`, then the Eq. 4 and
/// Eq. 5 estimators.
fn compile_line(name: &str, compiler: &Compiler, circuit: &Circuit) -> String {
    let out = compiler.compile(circuit).unwrap();
    let times = GateTimeModel::default();
    let s = estimate_success(&out.program, &NoiseModel::default(), &times);
    let t = execution_time_us(&out.program, &times, &ExecTimeModel::default());
    tilt_line(name, &out, s.ln_success, t)
}

fn routers() -> [(&'static str, RouterKind); 3] {
    [
        ("linq", RouterKind::Linq(LinqConfig::default())),
        ("linq3", RouterKind::Linq(LinqConfig::with_max_swap_len(3))),
        ("stoch", RouterKind::Stochastic(StochasticConfig::default())),
    ]
}

fn schedulers() -> [(&'static str, SchedulerKind); 2] {
    [
        ("greedy", SchedulerKind::GreedyMaxExecutable),
        ("naive", SchedulerKind::NaiveNextGate),
    ]
}

fn mappings() -> [(&'static str, InitialMapping); 4] {
    [
        ("id", InitialMapping::Identity),
        ("rev", InitialMapping::Reverse),
        ("chain", InitialMapping::InteractionChain),
        ("rand", InitialMapping::Random(7)),
    ]
}

fn actual_pins() -> Vec<String> {
    let mut lines = Vec::new();

    // The paper suite at the Fig. 8 head sizes, default policies.
    for head in [16usize, 32] {
        for b in paper_suite() {
            let spec = DeviceSpec::new(b.circuit.n_qubits(), head).unwrap();
            let name = format!("suite/{}/h{head}", b.name);
            lines.push(compile_line(&name, &Compiler::new(spec), &b.circuit));
        }
    }

    // Every router × scheduler × initial mapping on one circuit.
    let circuit = qft(24);
    let spec = DeviceSpec::new(24, 8).unwrap();
    for (rn, router) in routers() {
        for (sn, scheduler) in schedulers() {
            for (mn, initial) in mappings() {
                let mut compiler = Compiler::new(spec);
                compiler
                    .router(router)
                    .scheduler(scheduler)
                    .initial_mapping(initial);
                let name = format!("policy/qft24/{rn}/{sn}/{mn}");
                lines.push(compile_line(&name, &compiler, &circuit));
            }
        }
    }

    // The Clifford QEC regime: repetition code d=251, 10 rounds.
    let rep = repetition_code(251, 10);
    let spec = DeviceSpec::new(rep.n_qubits(), 16).unwrap();
    lines.push(compile_line(
        "qec/rep251x10/h16",
        &Compiler::new(spec),
        &rep,
    ));

    // Sympathetic cooling through the session API.
    let circuit = qft(32);
    let spec = DeviceSpec::new(32, 8).unwrap();
    for (name, policy) in [
        ("threshold1", CoolingPolicy::threshold(1.0)),
        ("periodic2", CoolingPolicy::periodic(2)),
    ] {
        let report = Engine::builder()
            .backend(Backend::Tilt(spec))
            .cooling(policy)
            .build()
            .unwrap()
            .run(&circuit)
            .unwrap();
        let out = report.tilt_output().unwrap();
        let name = format!("cooling/qft32/{name}");
        lines.push(tilt_line(
            &name,
            out,
            report.ln_success,
            report.exec_time_us,
        ));
    }

    // The §VII ELU split: QAOA-32 over two ELU geometries.
    let circuit = qaoa_maxcut(32, 2, 5);
    let (noise, times) = (NoiseModel::default(), GateTimeModel::default());
    for (ions, head) in [(18usize, 8usize), (10, 4)] {
        let spec = ScaleSpec::new(ions, head).unwrap();
        let program = compile_scaled(&circuit, &spec).unwrap();
        let report = estimate_scaled(&program, &noise, &times);
        for (e, out) in program.elu_outputs.iter().enumerate() {
            let name = format!("scaled/qaoa32/{ions}x{head}/elu{e}");
            lines.push(tilt_line(&name, out, 0.0, 0.0));
        }
        lines.push(format!(
            "scaled/qaoa32/{ions}x{head} epr={} moves={} swaps={} ln={:016x} t={:016x}",
            program.epr_pairs,
            report.total_moves,
            report.total_swaps,
            report.ln_success.to_bits(),
            report.exec_time_us.to_bits(),
        ));
    }
    lines
}

const EXPECTED: &str = "\
suite/ADDER/h16 ops=944c0e0d341193fe3a681700ddfdc1e9 routed=f013f7e4f782f8dcab0a738124c0a88e maps=ced1535a710cd2af2d959b3efddc4e85 swaps=0 moves=8 ln=bfdd2d101f8e5cc1 t=40e4020000000000\n\
suite/BV/h16 ops=80e5c22550460ddd9650b5f427be3f9b routed=2bf472087cfa06da3d70557a2cb1c8ad maps=6841d34233da9bb3f2011ef1b8cf8fa5 swaps=7 moves=14 ln=bfbd85857139014d t=40db7d4000000000\n\
suite/QAOA/h16 ops=63f186b96ab202cdf31927cb8e1eaaaf routed=355ab4abce5f5c1e80f1bcd28b0c7aa3 maps=ced1535a710cd2af2d959b3efddc4e85 swaps=0 moves=18 ln=bff7cd0543f7bf53 t=40e6b40000000000\n\
suite/RCS/h16 ops=4a5c901f3a5e643bb4676d4cff00bc99 routed=53d6e0b3dfdac4d445fda33b6ec5ead9 maps=ced1535a710cd2af2d959b3efddc4e85 swaps=0 moves=34 ln=bff366ab0c64a6db t=40d8ed0000000000\n\
suite/QFT/h16 ops=1ca4f14437020faaa8eef5a73760104e routed=7e85870b0cf79bad87c87a2eff6523db maps=9e6ed39333f2f38e31ab1956eac5eaad swaps=124 moves=234 ln=c0410f223381b480 t=41323aee00000000\n\
suite/SQRT/h16 ops=d9cccca019ba1451382e4265e6916c47 routed=3ace463bc9518927bca5ca18ae8cb2ac maps=21a07ae63e4da2e9a2060a904c9338d9 swaps=52 moves=85 ln=c016dc84efb00bd6 t=41120bf400000000\n\
suite/ADDER/h32 ops=072697a4f1ebac7583e69be7c29371bd routed=f013f7e4f782f8dcab0a738124c0a88e maps=ced1535a710cd2af2d959b3efddc4e85 swaps=0 moves=4 ln=bfd8722f95bc3810 t=40e3c18000000000\n\
suite/BV/h32 ops=fc75cbfd07aeb1392aed806e2b5e8884 routed=ef27b04f293d22aaf278d8c4815ff44a maps=4cfb516de35d8e33b56bec9128bc5283 swaps=3 moves=6 ln=bfb5c3a62a1f9635 t=40e2aee000000000\n\
suite/QAOA/h32 ops=8586e257a5b5ed06a8414ae1b9ac78c1 routed=355ab4abce5f5c1e80f1bcd28b0c7aa3 maps=ced1535a710cd2af2d959b3efddc4e85 swaps=0 moves=4 ln=bfed55bbe7a7ca98 t=40db180000000000\n\
suite/RCS/h32 ops=60e753a05fe8d17352b5476d891b55db routed=53d6e0b3dfdac4d445fda33b6ec5ead9 maps=ced1535a710cd2af2d959b3efddc4e85 swaps=0 moves=8 ln=bfe91b9a4759c884 t=40de200000000000\n\
suite/QFT/h32 ops=d178b3a883aaab0969a028869de0e9c2 routed=f4c61f990519c6514ffd92593aa130b9 maps=2ad36e0cd0df952b8d21922ead425833 swaps=35 moves=72 ln=c0230398e0a89738 t=413b2de300000000\n\
suite/SQRT/h32 ops=f872322983ef5ef426e6000f022f8ee6 routed=cab74a997c85121c49838dc71fc4265c maps=e71a179f7075507fcc3f26e39c812625 swaps=34 moves=53 ln=c00e07219e942424 t=411cc4f400000000\n\
policy/qft24/linq/greedy/id ops=fdb52981c9239e131cdfaa8d39c718b1 routed=d2b9f5fac99f9c2cc8842661f9fe6d6d maps=3e316b2c4462a638884e0aedf443529d swaps=31 moves=44 ln=bfee41cc6db77c77 t=40fa6f2000000000\n\
policy/qft24/linq/greedy/rev ops=456dd206216ec3081e741e6ef29cf340 routed=aadf62c8be1c4f595b24d1db3dfe527d maps=0bdbb644be0a262a7dc6235305bdad1d swaps=31 moves=44 ln=bfee41cc6db77c77 t=40fa4b4000000000\n\
policy/qft24/linq/greedy/chain ops=fdb52981c9239e131cdfaa8d39c718b1 routed=d2b9f5fac99f9c2cc8842661f9fe6d6d maps=3e316b2c4462a638884e0aedf443529d swaps=31 moves=44 ln=bfee41cc6db77c77 t=40fa6f2000000000\n\
policy/qft24/linq/greedy/rand ops=ec903f363d35d44e450530cd073e601d routed=78c219bb97d19cead6fdde42ae942c5a maps=4b8b3d446bc164cf93295f9d658e79ef swaps=69 moves=116 ln=c00466746df20d1b t=410131a000000000\n\
policy/qft24/linq/naive/id ops=43bfb2f5b32090a0b3c7f38780513bc1 routed=d2b9f5fac99f9c2cc8842661f9fe6d6d maps=3e316b2c4462a638884e0aedf443529d swaps=31 moves=53 ln=bfefa173d623b1d1 t=40fbb5c000000000\n\
policy/qft24/linq/naive/rev ops=63477a8f84e1cb818288617f2e0e42c0 routed=aadf62c8be1c4f595b24d1db3dfe527d maps=0bdbb644be0a262a7dc6235305bdad1d swaps=31 moves=83 ln=bff7157fc6d9f14e t=40fb71e000000000\n\
policy/qft24/linq/naive/chain ops=43bfb2f5b32090a0b3c7f38780513bc1 routed=d2b9f5fac99f9c2cc8842661f9fe6d6d maps=3e316b2c4462a638884e0aedf443529d swaps=31 moves=53 ln=bfefa173d623b1d1 t=40fbb5c000000000\n\
policy/qft24/linq/naive/rand ops=cb5716ee8e18001e8c6c008bcd321f70 routed=78c219bb97d19cead6fdde42ae942c5a maps=4b8b3d446bc164cf93295f9d658e79ef swaps=69 moves=147 ln=c008a560384cab7d t=410192b000000000\n\
policy/qft24/linq3/greedy/id ops=3c88e5b8b17eca1032cc3568306bd986 routed=cf90e90c934c3ccfe58b568369599c55 maps=ee58e035809c83be3101b74c614537c1 swaps=83 moves=74 ln=bffb5f684171f422 t=4100f53000000000\n\
policy/qft24/linq3/greedy/rev ops=8b3921d563627d6a55a70fa29b9705c1 routed=5baa6f780a6891a252b8fcc68cb96c49 maps=6e585ff4dc04bfa664bf01d0dca44c01 swaps=83 moves=74 ln=bffb622374a5debc t=4100d1c000000000\n\
policy/qft24/linq3/greedy/chain ops=3c88e5b8b17eca1032cc3568306bd986 routed=cf90e90c934c3ccfe58b568369599c55 maps=ee58e035809c83be3101b74c614537c1 swaps=83 moves=74 ln=bffb5f684171f422 t=4100f53000000000\n\
policy/qft24/linq3/greedy/rand ops=498751f62fd951b679c80023096a8abc routed=d15c6076bf8e13b9ebac369357a6b302 maps=2a2fe68ab1a1481aaee349d5d7896c65 swaps=162 moves=157 ln=c010f4239e766dec t=41048fc000000000\n\
policy/qft24/linq3/naive/id ops=a9a5e314e0ff841be38cc955d5a35b20 routed=cf90e90c934c3ccfe58b568369599c55 maps=ee58e035809c83be3101b74c614537c1 swaps=83 moves=116 ln=c0054dd02b7e2634 t=41011c5000000000\n\
policy/qft24/linq3/naive/rev ops=269f3614df6c4247f8d5e8e2ecd9d94f routed=5baa6f780a6891a252b8fcc68cb96c49 maps=6e585ff4dc04bfa664bf01d0dca44c01 swaps=83 moves=85 ln=bfff110f69cfcf2b t=4100c2d000000000\n\
policy/qft24/linq3/naive/chain ops=a9a5e314e0ff841be38cc955d5a35b20 routed=cf90e90c934c3ccfe58b568369599c55 maps=ee58e035809c83be3101b74c614537c1 swaps=83 moves=116 ln=c0054dd02b7e2634 t=41011c5000000000\n\
policy/qft24/linq3/naive/rand ops=760b93f0dd39a7e3de426ec61ab50fd3 routed=d15c6076bf8e13b9ebac369357a6b302 maps=2a2fe68ab1a1481aaee349d5d7896c65 swaps=162 moves=191 ln=c014d6e1304b430b t=4104fad800000000\n\
policy/qft24/stoch/greedy/id ops=5511bddbcc2473b6f613be2174c6e462 routed=c2bc11df12c1dcf192b75f2e667ec55f maps=8f2f78643ebc6f611412f48efad0ee61 swaps=88 moves=146 ln=c007e60649b9e061 t=4104f28000000000\n\
policy/qft24/stoch/greedy/rev ops=3873b463d0c804fca50c2106bd9a0d68 routed=0dbf7e3f6f0d5e22ed51f0765623e668 maps=96bcbf02660c1f8e0dd6ce014bcc82f1 swaps=83 moves=115 ln=c0039d3c1155c49a t=4104280000000000\n\
policy/qft24/stoch/greedy/chain ops=5511bddbcc2473b6f613be2174c6e462 routed=c2bc11df12c1dcf192b75f2e667ec55f maps=8f2f78643ebc6f611412f48efad0ee61 swaps=88 moves=146 ln=c007e60649b9e061 t=4104f28000000000\n\
policy/qft24/stoch/greedy/rand ops=cb27ab62d5861b6981cc2eeea2583666 routed=5ba1b1dbdc832bcde3ed7cda553c30aa maps=d6dbd47a669fb05d45d9226a29e1d1fb swaps=144 moves=228 ln=c01683ba0df82cf2 t=410bc91000000000\n\
policy/qft24/stoch/naive/id ops=193f4095dfc90c0c0ffdf7b738f16dd0 routed=c2bc11df12c1dcf192b75f2e667ec55f maps=8f2f78643ebc6f611412f48efad0ee61 swaps=88 moves=205 ln=c011048ae2aa208d t=410554f000000000\n\
policy/qft24/stoch/naive/rev ops=d34ad3f748547441be6cb5670418727e routed=0dbf7e3f6f0d5e22ed51f0765623e668 maps=96bcbf02660c1f8e0dd6ce014bcc82f1 swaps=83 moves=158 ln=c008fbbac44e5a02 t=41048c6000000000\n\
policy/qft24/stoch/naive/chain ops=193f4095dfc90c0c0ffdf7b738f16dd0 routed=c2bc11df12c1dcf192b75f2e667ec55f maps=8f2f78643ebc6f611412f48efad0ee61 swaps=88 moves=205 ln=c011048ae2aa208d t=410554f000000000\n\
policy/qft24/stoch/naive/rand ops=68cd67ccaa71d8c635269d44e9f35b26 routed=5ba1b1dbdc832bcde3ed7cda553c30aa maps=d6dbd47a669fb05d45d9226a29e1d1fb swaps=144 moves=288 ln=c01c00beec22e519 t=410c7d5000000000\n\
qec/rep251x10/h16 ops=9932d22924775ad04f48e1342490b49f routed=125376ee1b6a6d375df5df8960db15fe maps=2a9d8c1dc0a18b1a24d0109fd43f6449 swaps=0 moves=370 ln=c06551cd8cc51224 t=4129cb7400000000\n\
cooling/qft32/threshold1 ops=af88bbe195c1ef0f3fbcbf257cecc2c5 routed=eb81042b28b78f8c817abbf2f74cb8fd maps=d9c31e1f45168d5310d65f363ad326f5 swaps=58 moves=73 ln=bfecf679ec245c3f t=4108555000000000\n\
cooling/qft32/periodic2 ops=af88bbe195c1ef0f3fbcbf257cecc2c5 routed=eb81042b28b78f8c817abbf2f74cb8fd maps=d9c31e1f45168d5310d65f363ad326f5 swaps=58 moves=73 ln=bfe9c1e521c99733 t=4109815000000000\n\
scaled/qaoa32/18x8/elu0 ops=61d97603bc3522d806ca6c4881d4876a routed=25c951fa30efa0d9ccd257b2aa8b10de maps=d5e56506d0f360b0577901103526c2fb swaps=0 moves=2 ln=0000000000000000 t=0000000000000000\n\
scaled/qaoa32/18x8/elu1 ops=21736692a5dcb4fdf670f7b7093064f1 routed=0b64fa60acb90e82fca80148f53d4618 maps=fef7de4f02e352c2e08bee79f5255bf1 swaps=8 moves=10 ln=0000000000000000 t=0000000000000000\n\
scaled/qaoa32/18x8 epr=2 moves=12 swaps=8 ln=bfc5e6c6a66d3ef7 t=40bc630000000000\n\
scaled/qaoa32/10x4/elu0 ops=08c64030f72965753c58abb6034611db routed=3e529d9167de879e4ef084a5f14b1656 maps=7ecc1e0c059dacc20ff1c4571c043fb3 swaps=0 moves=3 ln=0000000000000000 t=0000000000000000\n\
scaled/qaoa32/10x4/elu1 ops=d3af948a73d741d5c98e3393638cdcf1 routed=6825c46e3a113538691aa17681a2b8f6 maps=d3b4c4c3b1ad966014e5df983185b613 swaps=6 moves=10 ln=0000000000000000 t=0000000000000000\n\
scaled/qaoa32/10x4/elu2 ops=13421fcdd3dd0c8de865fdb7da756c1c routed=c28bfcd9b688bfac0995b07de45d0968 maps=d3fefca881ad966014e5dfaefe4f6b47 swaps=5 moves=11 ln=0000000000000000 t=0000000000000000\n\
scaled/qaoa32/10x4/elu3 ops=ab67cd5172ca6b4140ff664c068e2a38 routed=07c024cd452088135dc7f3cd1da050c2 maps=21d6ea09a2bd7ff3acdec5762478a5c5 swaps=6 moves=12 ln=0000000000000000 t=0000000000000000\n\
scaled/qaoa32/10x4 epr=6 moves=36 swaps=17 ln=bfd95e0c06cb8a10 t=40bb9f0000000000
";

#[test]
fn compiled_artifacts_and_estimates_match_the_recorded_pins() {
    let actual = actual_pins();
    let expected: Vec<&str> = EXPECTED.lines().collect();
    let table = actual.join("\n");
    assert_eq!(
        actual.len(),
        expected.len(),
        "pin count changed; actual table:\n{table}"
    );
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a, e, "pin mismatch; actual table:\n{table}");
    }
}
