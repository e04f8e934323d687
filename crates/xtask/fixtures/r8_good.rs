//! R8 known-good: parameter silencers, value-position `.ok()`, handled
//! results, kept thread handles, and justified fire-and-forgets.

fn silencers(bound: f64, n: usize, reason: &str) {
    let _ = n;
    let _ = (bound, n);
    let _ = &reason;
}

fn value_position(lock: Result<Guard, E>) -> Option<u32> {
    let v = lock.ok();
    v.map(|g| g.value)
}

fn handled(store: &mut Store, id: PageId, page: &Page) -> Result<(), E> {
    store.write(id, page)?;
    Ok(())
}

fn justified(path: &Path) {
    // invariant: best-effort cleanup; failure changes nothing observable.
    let _ = remove_file(path);
    // invariant: fire-and-forget log pump; exits with the process.
    std::thread::spawn(log_pump);
}

fn kept(workers: &mut Vec<JoinHandle<()>>, n: String) -> JoinHandle<()> {
    let h = thread::spawn(worker);
    workers.push(thread::Builder::new().name(n).spawn(worker)?);
    std::thread::scope(|s| {
        s.spawn(|| work(&h));
    });
    thread::spawn(worker)
}

#[cfg(test)]
mod tests {
    fn fine_here(p: &Path) {
        std::fs::remove_file(p).ok();
        std::thread::spawn(worker);
    }
}
