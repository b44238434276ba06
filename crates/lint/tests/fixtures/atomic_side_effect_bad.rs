// Fixture: side effects inside re-executable atomic closures.
// Not compiled — consumed as text by tests/lint_rules.rs.

use rococo_stm::atomically;
use rococo_stm::try_atomically as run_tx; // alias evasion must not work

fn direct_macro(tm: &Tm) {
    atomically(tm, 0, |tx| {
        println!("attempt"); // line 9: I/O macro
        tx.write(0, 1)
    });
}

fn clock_and_sleep(tm: &Tm) {
    atomically(tm, 0, |tx| {
        let t = Instant::now(); // line 16: clock read
        thread::sleep(Duration::from_millis(1)); // line 17: sleep
        tx.write(0, t.elapsed().as_nanos() as u64)
    });
}

fn aliased_callee(tm: &Tm) {
    run_tx(tm, 0, |tx| {
        let guard = shared.lock(); // line 24: lock acquisition
        tx.write(0, *guard)
    });
}

fn rng_and_channel(tm: &Tm, chan: &Sender<u64>) {
    let mut seed = 7;
    execute_seq(
        tm,
        0,
        |tx| {
            let v = next_rand(&mut seed); // line 35: RNG advancement
            chan.send(v).unwrap(); // line 36: channel send
            tx.write(0, v)
        },
        |_| {},
    );
}

fn filesystem(tm: &Tm) {
    atomically(tm, 0, |tx| {
        fs::write("/tmp/x", b"y").unwrap(); // line 45: fs access
        tx.write(0, 1)
    });
}

fn expression_body(tm: &Tm) {
    let v = atomically(tm, 0, |tx| tx.write(0, rng.gen_range(0..9))); // line 51: RNG
    let _ = v;
}
