//! Micro-benchmark: simulator throughput — machine preparation (decoding
//! every function into micro-ops with its block table and static block
//! costs, in one pass per function) and execution of the decoded images
//! (instructions per second), which bound the §V data-generation time
//! (2,778 loops × 16 factors at paper scale).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fegen_rtl::lower::lower_program;
use fegen_rtl::RtlProgram;
use fegen_sim::{Arg, Machine, SimConfig};

fn kernel_program() -> RtlProgram {
    let src = "\
        int data[2048]; int out[2048];\n\
        void init() { int i; for (i = 0; i < 2048; i = i + 1) { data[i] = i * 7 % 31; } }\n\
        int reduce(int n) { int i; int s; s = 0;\n\
          for (i = 0; i < n; i = i + 1) { s = s + data[i] * 3; } return s; }\n\
        void stencil(int n) { int i;\n\
          for (i = 2; i < n; i = i + 1) { out[i] = data[i] + data[i-1] + data[i-2]; } }\n";
    let ast = fegen_lang::parse_program(src).expect("parses");
    lower_program(&ast).expect("lowers")
}

fn bench_machine_new(c: &mut Criterion) {
    let program = kernel_program();
    c.bench_function("machine_new", |b| {
        b.iter(|| Machine::new(black_box(&program), SimConfig::default()))
    });
}

fn bench_execution(c: &mut Criterion) {
    let program = kernel_program();
    let mut group = c.benchmark_group("execution");
    // Count the instructions once so throughput is per simulated insn.
    let insns = {
        let mut m = Machine::new(&program, SimConfig::default());
        m.call("init", &[]).unwrap();
        m.call("reduce", &[Arg::Int(2000)]).unwrap();
        m.insns_executed()
    };
    group.throughput(Throughput::Elements(insns));
    group.bench_function("init_plus_reduce_2000", |b| {
        b.iter(|| {
            let mut m = Machine::new(&program, SimConfig::default());
            m.call("init", &[]).unwrap();
            m.call("reduce", &[Arg::Int(black_box(2000))]).unwrap()
        })
    });
    group.bench_function("stencil_2000", |b| {
        b.iter(|| {
            let mut m = Machine::new(&program, SimConfig::default());
            m.call("init", &[]).unwrap();
            m.call("stencil", &[Arg::Int(black_box(2000))]).unwrap()
        })
    });
    group.finish();
}

fn bench_measure_site(c: &mut Criterion) {
    use fegen_sim::oracle::{kernel_functions, measure_site, CallSpec, LoopSite, OracleConfig, Workload};
    let program = kernel_program();
    let workload = Workload {
        init: vec![CallSpec { func: "init".into(), args: vec![] }],
        kernels: vec![CallSpec { func: "reduce".into(), args: vec![Arg::Int(1500)] }],
    };
    let kernel_funcs = kernel_functions(&program, &workload);
    let site = LoopSite { func: "reduce".into(), loop_id: 0 };
    let mut group = c.benchmark_group("oracle");
    group.sample_size(10);
    group.bench_function("measure_site_16_factors", |b| {
        b.iter(|| {
            measure_site(
                black_box(&program),
                &workload,
                &kernel_funcs,
                &site,
                &OracleConfig::default(),
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_machine_new, bench_execution, bench_measure_site);
criterion_main!(benches);
