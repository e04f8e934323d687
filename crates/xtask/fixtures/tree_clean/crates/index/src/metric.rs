//! Clean counterpart: directory lock, then pager mutex, in that order
//! everywhere.

fn search(t: &Tree) -> Result<(), E> {
    let dir = t.directory.lock().map_err(|_| E::Poisoned)?;
    let io = t.io.lock().map_err(|_| E::Poisoned)?;
    walk(dir, io);
    Ok(())
}

fn rebuild(t: &Tree) -> Result<(), E> {
    let dir = t.directory.lock().map_err(|_| E::Poisoned)?;
    let io = t.io.lock().map_err(|_| E::Poisoned)?;
    walk(dir, io);
    Ok(())
}
