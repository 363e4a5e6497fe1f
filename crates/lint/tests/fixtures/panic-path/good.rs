// Clean twin of bad.rs: the helper returns an Option instead of unwrapping,
// so no panic site is reachable from the handler.
fn deliver(world: &mut World, k: &mut Kernel, ev: u64) {
    route(ev);
    k.schedule_in(1, move |w, k| deliver(w, k, ev + 1));
}

fn route(ev: u64) {
    inner(ev);
}

fn inner(ev: u64) -> Option<u64> {
    let v: Option<u64> = Some(ev);
    v
}
