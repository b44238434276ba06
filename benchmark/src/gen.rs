//! Request generation: a pure function of `(workload, seed, segment)`.

use crate::spec::{KvSpec, Workload, POOL};
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rococo_server::Request;
use rococo_sigs::splitmix64;
use rococo_trace::ZipfSampler;

/// The seed of one segment's stream: distinct per workload and segment, so
/// no two segments replay the same requests.
pub fn stream_seed(workload: Workload, seed: u64, segment: usize) -> u64 {
    let mut state = seed ^ (workload.id() << 56) ^ ((segment as u64) << 48);
    splitmix64(&mut state)
}

/// The `POOL` requests of one segment.
pub fn requests(workload: Workload, spec: &KvSpec, seed: u64, segment: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(stream_seed(workload, seed, segment));
    let zipf = ZipfSampler::new(spec.keys, spec.theta);
    (0..POOL)
        .map(|_| {
            let key = zipf.sample(&mut rng);
            if rng.gen_range(0..100u32) < spec.read_pct {
                if spec.multi_get && rng.gen_range(0..8u32) == 0 {
                    let n = rng.gen_range(2..=8usize);
                    let mut keys = vec![key];
                    keys.extend((1..n).map(|_| zipf.sample(&mut rng)));
                    Request::MultiGet { keys }
                } else {
                    Request::Get { key }
                }
            } else if rng.gen_bool(0.5) {
                Request::Add {
                    key,
                    delta: rng.gen_range(1..=1_000u64),
                }
            } else {
                Request::Transfer {
                    from: key,
                    to: zipf.sample(&mut rng),
                    amount: rng.gen_range(1..=100u64),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_workload_seed_and_segment() {
        for w in [Workload::KvRead, Workload::KvHotWrite, Workload::KvDurable] {
            let spec = w.kv().unwrap();
            let a = requests(w, &spec, 7, 2);
            assert_eq!(a.len(), POOL);
            assert_eq!(a, requests(w, &spec, 7, 2), "{}: same inputs", w.name());
            assert_ne!(a, requests(w, &spec, 8, 2), "{}: seed matters", w.name());
            assert_ne!(a, requests(w, &spec, 7, 3), "{}: segment matters", w.name());
        }
        let spec = Workload::KvRead.kv().unwrap();
        assert_ne!(
            requests(Workload::KvRead, &spec, 7, 2),
            requests(Workload::KvDurable, &spec, 7, 2),
            "workload matters even for one mix"
        );
    }

    #[test]
    fn mixes_hold_their_shares_and_stay_in_the_keyspace() {
        for w in [Workload::KvRead, Workload::KvHotWrite, Workload::KvDurable] {
            let spec = w.kv().unwrap();
            let reqs = requests(w, &spec, 1, 0);
            let reads = reqs.iter().filter(|r| r.is_read_only()).count();
            let share = reads as f64 / reqs.len() as f64 * 100.0;
            assert!(
                (share - f64::from(spec.read_pct)).abs() < 1.0,
                "{}: {share:.1} % reads",
                w.name()
            );
            for r in &reqs {
                match r {
                    Request::Get { key } | Request::Add { key, .. } => assert!(*key < spec.keys),
                    Request::Transfer { from, to, .. } => {
                        assert!(*from < spec.keys && *to < spec.keys)
                    }
                    Request::MultiGet { keys } => {
                        assert!(spec.multi_get && (2..=8).contains(&keys.len()));
                        assert!(keys.iter().all(|k| *k < spec.keys));
                    }
                    Request::Put { .. } => panic!("no Put in any mix"),
                }
            }
        }
    }
}
