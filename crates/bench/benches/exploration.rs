//! Benchmark: the search over evaluation orders at the default bound, one
//! execution taking the leftmost sibling at every choice, and at a bound of
//! 64, the §5.1 test-oracle use.

use criterion::{criterion_group, criterion_main, Criterion};

use cerberus::exec::ExecMode;
use cerberus::memory::config::ModelConfig;
use cerberus::pipeline::Session;

const NONDET: &str = r#"
int trace = 0;
int f(void) { trace = trace * 10 + 1; return 1; }
int g(void) { trace = trace * 10 + 2; return 2; }
int h(void) { trace = trace * 10 + 3; return 3; }
int sum(int a, int b, int c) { return a + b + c; }
int main(void) { return sum(f(), g(), h()) + trace % 7; }
"#;

fn bench_exploration(c: &mut Criterion) {
    let mut group = c.benchmark_group("exploration");
    group.sample_size(10);
    let program = Session::default().elaborate(NONDET).unwrap();
    let driver = program.driver(&ModelConfig::de_facto());
    group.bench_function("search_bound_1", |b| {
        b.iter(|| driver.run(ExecMode::default()))
    });
    group.bench_function("search_bound_64", |b| {
        b.iter(|| driver.run(ExecMode { max_executions: 64 }))
    });
    group.finish();
}

criterion_group!(benches, bench_exploration);
criterion_main!(benches);
