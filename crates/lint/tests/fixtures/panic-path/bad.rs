// Fed to the structural tests as `crates/core/src/world.rs`: the panic in
// `inner` is two hops from the `deliver` event handler (a DES handler,
// because it schedules kernel events), and the diagnostic must spell out the
// whole chain.
fn deliver(world: &mut World, k: &mut Kernel, ev: u64) {
    route(ev);
    k.schedule_in(1, move |w, k| deliver(w, k, ev + 1));
}

fn route(ev: u64) {
    inner(ev);
}

fn inner(ev: u64) {
    let v: Option<u64> = Some(ev);
    v.unwrap();
}
