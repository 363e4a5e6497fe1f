/// Per-worker state is keyed by the transaction index assigned at spawn
/// time, so results cannot depend on which OS thread of the VSCC worker pool
/// runs the check.
pub fn check_key(tx_index: usize) -> usize {
    tx_index
}

pub fn run_scoped(f: impl FnOnce() + Send) {
    std::thread::scope(|s| {
        s.spawn(f);
    });
}

#[cfg(test)]
mod tests {
    #[test]
    fn thread_identity_is_fine_in_tests() {
        let _ = std::thread::current().id();
    }
}
