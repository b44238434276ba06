// Fixture: clean atomic closures and effects that are legitimately
// outside the transactional body. Must produce zero diagnostics.

use rococo_stm::atomically;

fn pure_closure(tm: &Tm) {
    atomically(tm, 0, |tx| {
        let v = tx.read(0)?;
        tx.write(1, v + 1)
    });
}

fn effects_around_the_closure(tm: &Tm) {
    let started = Instant::now(); // before: fine
    let seed = next_rand(&mut state); // precomputed: fine
    atomically(tm, 0, |tx| tx.write(0, seed));
    println!("took {:?}", started.elapsed()); // after: fine
    seen.lock().push(seed); // after the closure closes: fine
}

fn on_abort_is_not_transactional(tm: &Tm) {
    execute_seq(
        tm,
        0,
        |tx| tx.write(0, 1),
        |err| println!("abort: {err:?}"), // second closure re-runs nothing
    );
}

fn strings_and_comments_do_not_count(tm: &Tm) {
    atomically(tm, 0, |tx| {
        // println! thread::sleep Instant::now — just a comment
        let label = "println!(\"not code\") fs::write";
        tx.write(0, label.len() as u64)
    });
}

fn unrelated_closures_are_free(data: &[u64]) {
    let sum: u64 = data.iter().map(|x| x + next_rand(&mut s)).sum();
    println!("{sum}");
}
