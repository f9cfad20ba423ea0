//! The shipping `paper_default` experiment matrix must vet completely
//! clean under the static pre-flight, point by point.

/// The shipping experiment matrix is the analyzer's most important
/// negative control: all of `paper_default` must vet clean, every point,
/// with zero simulation — this is what `sweep --check` runs in CI.
#[test]
fn every_paper_default_point_checks_clean() {
    let matrix = gals_sweep::SweepMatrix::paper_default(60_000);
    let specs = matrix.expand();
    assert!(specs.len() >= 100, "paper matrix shrank to {}", specs.len());
    for spec in &specs {
        let findings = spec.static_findings();
        assert!(
            findings.is_empty(),
            "point {} ({} {} {}): {findings:?}",
            spec.index,
            spec.benchmark.name(),
            spec.mode.label(),
            spec.dvfs.label,
        );
    }
}
