//! Benchmarks of the pipeline phases (the Fig. 1 architecture): parsing,
//! desugaring/type-checking, elaboration, and end-to-end execution.

use criterion::{criterion_group, criterion_main, Criterion};

use cerberus::pipeline::{Config, Session};

const QUICKSORT: &str = r#"
int data[64];
void fill(void) { for (int i = 0; i < 64; i++) data[i] = (i * 37 + 11) % 64; }
void sort(int lo, int hi) {
  if (lo >= hi) return;
  int pivot = data[hi]; int i = lo;
  for (int j = lo; j < hi; j++) {
    if (data[j] < pivot) { int t = data[i]; data[i] = data[j]; data[j] = t; i++; }
  }
  int t = data[i]; data[i] = data[hi]; data[hi] = t;
  sort(lo, i - 1); sort(i + 1, hi);
}
int main(void) {
  fill(); sort(0, 63);
  int acc = 0;
  for (int i = 0; i < 64; i++) acc += data[i] * i;
  return acc % 128;
}
"#;

fn bench_pipeline(c: &mut Criterion) {
    let session = Session::new(Config::default());
    let mut group = c.benchmark_group("pipeline_phases");
    group.sample_size(20);
    group.bench_function("parse", |b| {
        b.iter(|| cerberus::parser::parse_translation_unit(QUICKSORT).unwrap())
    });
    group.bench_function("frontend", |b| {
        b.iter(|| session.desugar(QUICKSORT).unwrap())
    });
    group.bench_function("elaborate", |b| {
        b.iter(|| session.elaborate(QUICKSORT).unwrap())
    });
    group.bench_function("execute", |b| {
        let config = session.config();
        let driver = session.elaborate(QUICKSORT).unwrap().driver(&config.model);
        b.iter(|| driver.run(config.mode))
    });
    group.bench_function("end_to_end_cold", |b| {
        b.iter(|| session.run_source(QUICKSORT).unwrap())
    });
    group.bench_function("end_to_end_reused_artifact", |b| {
        let program = session.elaborate(QUICKSORT).unwrap();
        let config = session.config();
        b.iter(|| program.execute_bounded(&config.model, config.mode, &config.limits))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
