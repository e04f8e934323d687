//! Seeded: R1 (an expect) and R8 (a discarded `Result`) in a substrate
//! file of the library sweep.

fn radius_of(rs: &[f64]) -> f64 {
    let r = rs.last().expect("non-empty");
    let _ = persist(rs);
    *r
}

// Seeded: R10 — the directory lock and the pager mutex nested in both
// orders; the lock-order audit follows the locks into the index crate.
fn search(t: &Tree) -> Result<(), E> {
    let dir = t.directory.lock().map_err(|_| E::Poisoned)?;
    let io = t.io.lock().map_err(|_| E::Poisoned)?;
    walk(dir, io);
    Ok(())
}

fn rebuild(t: &Tree) -> Result<(), E> {
    let io = t.io.lock().map_err(|_| E::Poisoned)?;
    let dir = t.directory.lock().map_err(|_| E::Poisoned)?;
    walk(dir, io);
    Ok(())
}
