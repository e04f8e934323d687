//! R8 seeded-bad: fallible calls whose results vanish, and thread handles
//! dropped on the spot.

fn flush(pool: &mut Pool, store: &mut Store, id: PageId, page: &Page) {
    let _ = store.write(id, page);
    let _ = flush_all(pool);
    pool.flush(store).ok();
}

fn detach(n: String) -> Result<(), E> {
    std::thread::spawn(move || pump());
    let _ = thread::spawn(worker);
    drop(thread::spawn(logger));
    thread::Builder::new().name(n).spawn(worker)?;
    Ok(())
}
