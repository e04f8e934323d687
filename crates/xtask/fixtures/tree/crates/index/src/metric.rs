//! Seeded: R1 (an expect) and R8 (a discarded `Result`) in a substrate file.

fn radius_of(rs: &[f64]) -> f64 {
    let r = rs.last().expect("non-empty");
    let _ = persist(rs);
    *r
}
