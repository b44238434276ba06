//! [`stats_block!`](crate::stats_block): the one place a layer names
//! its counters.
//!
//! Every stats surface in the workspace has the same three copies of
//! each counter — a relaxed atomic bumped on the hot path, a plain field
//! in a point-in-time snapshot, and a Prometheus series — plus the code
//! that moves a value from one to the next. A block declares each
//! member once (field name, help text, metric name, fixed labels) and
//! the macro generates all of it, so the copies cannot drift:
//!
//! ```
//! fn way(i: usize) -> &'static str {
//!     ["hit", "miss"][i]
//! }
//!
//! rococo_telemetry::stats_block! {
//!     /// Live cache counters.
//!     pub struct CacheStats;
//!     /// A point-in-time copy of [`CacheStats`].
//!     pub struct CacheSnapshot;
//!
//!     counters {
//!         pub lookups: "demo_cache_lookups_total", "Lookups served";
//!     }
//!     groups {
//!         "demo_cache_evictions_total", "Entries evicted, by reason" {
//!             /// Evicted to make room.
//!             pub evicted_full: reason = "full";
//!             /// Evicted by age.
//!             pub evicted_ttl: reason = "ttl";
//!         }
//!     }
//!     families {
//!         pub by_way: [2] "demo_cache_way_total", "Lookups by outcome", "way" => way;
//!     }
//!     histograms {
//!         pub fill_ns: "demo_cache_fill_ns", "Fill latency, nanoseconds",
//!             le = rococo_telemetry::HistogramSnapshot::pow2_bounds;
//!     }
//!     gauges {
//!         resident: u64 = "demo_cache_resident", "Entries resident";
//!     }
//! }
//!
//! let live = CacheStats::default();
//! live.lookups.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
//! let snap: CacheSnapshot = live.snapshot(17); // gauges are read by the caller
//! let mut reg = rococo_telemetry::MetricsRegistry::new();
//! snap.export_metrics(&mut reg);
//! assert!(reg.render_prometheus().contains("demo_cache_lookups_total 1"));
//! ```
//!
//! Generated: the live struct (`AtomicU64` per counter and group member,
//! `[AtomicU64; N]` per family, a [`Histogram`](crate::Histogram) per
//! histogram; `Debug + Default`), the snapshot struct with the same
//! field names, all `pub` (`u64`, `[u64; N]`,
//! [`HistogramSnapshot`](crate::HistogramSnapshot), plus the gauges;
//! `Debug + Clone + Default + PartialEq + Eq`, further derives may be
//! written on its header), `Live::snapshot(gauges..)`,
//! `Snapshot::merge(&other)` (counters, families and histograms add;
//! gauges are readings, not sums, and stay) and
//! `Snapshot::export_metrics(reg)`. The help text doubles as the field's
//! doc comment; further attributes on a member are copied to both
//! structs. Sections are optional but ordered as above.
//!
//! Two variations. A header line `export_metrics(reg, labels);` makes
//! the exporter take caller labels (`&[(&str, &str)]`, e.g. a shard
//! index) that are put in front of every series' own. A block with one
//! struct header generates only the plain struct, `merge` and the
//! exporter — for counters a single thread bumps as plain `u64`s.
//!
//! To add a counter to a layer: one line in its block.

/// Declares a stats block; see the [module docs](crate::stats).
#[macro_export]
macro_rules! stats_block {
    (
        $(#[$lm:meta])* $lvis:vis struct $Live:ident;
        $(#[$sm:meta])* $svis:vis struct $Snap:ident;
        $($body:tt)*
    ) => {
        $crate::stats_block!(@parse [$(#[$lm])* $lvis struct $Live]
            [$(#[$sm])* $svis struct $Snap] $($body)*);
    };
    (
        $(#[$sm:meta])* $svis:vis struct $Snap:ident;
        $($body:tt)*
    ) => {
        $crate::stats_block!(@parse [] [$(#[$sm])* $svis struct $Snap] $($body)*);
    };

    (@parse [$($live:tt)*] [$(#[$sm:meta])* $svis:vis struct $Snap:ident]
        $(export_metrics(reg, $labels:ident);)?
        $(counters {$(
            $(#[$cm:meta])* $cvis:vis $c:ident: $cname:literal, $chelp:literal;
        )*})?
        $(groups {$(
            $mname:literal, $mhelp:literal {$(
                $(#[$mm:meta])* $mvis:vis $m:ident: $($mk:ident = $mv:literal),+;
            )*}
        )*})?
        $(families {$(
            $(#[$fm:meta])* $fvis:vis $f:ident: [$flen:expr]
                $fname:literal, $fhelp:literal, $fkey:literal => $flabel:expr;
        )*})?
        $(histograms {$(
            $(#[$hm:meta])* $hvis:vis $h:ident: $hname:literal, $hhelp:literal, le = $hle:expr;
        )*})?
        $(gauges {$(
            $(#[$gm:meta])* $g:ident: $gty:ty = $gname:literal, $ghelp:literal $(, by $gkey:literal)?;
        )*})?
    ) => {
        $(#[$sm])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        $svis struct $Snap {
            $($(#[doc = $chelp] $(#[$cm])* pub $c: u64,)*)?
            $($($($(#[$mm])* pub $m: u64,)*)*)?
            $($(#[doc = $fhelp] $(#[$fm])* pub $f: [u64; $flen],)*)?
            $($(#[doc = $hhelp] $(#[$hm])* pub $h: $crate::HistogramSnapshot,)*)?
            $($(#[doc = $ghelp] $(#[$gm])* pub $g: $gty,)*)?
        }

        impl $Snap {
            /// Adds `other` into `self`: counters, families and
            /// histograms sum; gauges are readings and keep their value.
            pub fn merge(&mut self, other: &Self) {
                $($(self.$c += other.$c;)*)?
                $($($(self.$m += other.$m;)*)*)?
                $($(for (mine, theirs) in self.$f.iter_mut().zip(&other.$f) {
                    *mine += theirs;
                })*)?
                $($(self.$h = self.$h.merged_with(&other.$h);)*)?
            }

            /// Publishes every member into `reg` under the metric name,
            /// help text and labels its declaration gives it.
            pub fn export_metrics(
                &self,
                reg: &mut $crate::MetricsRegistry
                $(, $labels: &[(&str, &str)])?
            ) {
                let labels: &[(&str, &str)] = $crate::stats_block!(@labels $($labels)?);
                $($(reg.counter($cname, $chelp, labels, self.$c);)*)?
                $($($(reg.counter(
                    $mname,
                    $mhelp,
                    &[labels, &[$((stringify!($mk), $mv)),+]].concat(),
                    self.$m,
                );)*)*)?
                $($(for (i, n) in self.$f.iter().enumerate() {
                    reg.counter($fname, $fhelp, &[labels, &[($fkey, ($flabel)(i))]].concat(), *n);
                })*)?
                $($(reg.histogram($hname, $hhelp, labels, &self.$h, &($hle)(&self.$h));)*)?
                $($($crate::stats_block!(
                    @gauge reg labels $gname, $ghelp, self.$g $(, $gkey)?
                );)*)?
            }
        }

        $crate::stats_block!(@live [$($live)*] $Snap
            [$($(#[doc = $chelp] $(#[$cm])* $cvis $c;)*)? $($($($(#[$mm])* $mvis $m;)*)*)?]
            [$($(#[doc = $fhelp] $(#[$fm])* $fvis $f: $flen;)*)?]
            [$($(#[doc = $hhelp] $(#[$hm])* $hvis $h;)*)?]
            [$($($g: $gty;)*)?]);
    };

    (@labels) => { &[] };
    (@labels $labels:ident) => { $labels };

    (@gauge $reg:ident $labels:ident $name:literal, $help:literal, $value:expr) => {
        $reg.gauge($name, $help, $labels, $value as f64);
    };
    (@gauge $reg:ident $labels:ident $name:literal, $help:literal, $values:expr, $key:literal) => {
        for (i, value) in $values.iter().enumerate() {
            let i = i.to_string();
            $reg.gauge($name, $help, &[$labels, &[($key, i.as_str())]].concat(), *value as f64);
        }
    };

    (@live [] $($rest:tt)*) => {};
    (@live [$(#[$lm:meta])* $lvis:vis struct $Live:ident] $Snap:ident
        [$($(#[$cm:meta])* $cvis:vis $c:ident;)*]
        [$($(#[$fm:meta])* $fvis:vis $f:ident: $flen:expr;)*]
        [$($(#[$hm:meta])* $hvis:vis $h:ident;)*]
        [$($g:ident: $gty:ty;)*]
    ) => {
        $(#[$lm])*
        #[derive(Debug, Default)]
        $lvis struct $Live {
            $($(#[$cm])* $cvis $c: ::std::sync::atomic::AtomicU64,)*
            $($(#[$fm])* $fvis $f: [::std::sync::atomic::AtomicU64; $flen],)*
            $($(#[$hm])* $hvis $h: $crate::Histogram,)*
        }

        impl $Live {
            /// Takes a point-in-time copy (relaxed loads); the caller
            /// supplies the block's gauges, which it alone can read.
            pub fn snapshot(&self $(, $g: $gty)*) -> $Snap {
                use ::std::sync::atomic::Ordering::Relaxed;
                $Snap {
                    $($c: self.$c.load(Relaxed),)*
                    $($f: ::std::array::from_fn(|i| self.$f[i].load(Relaxed)),)*
                    $($h: self.$h.snapshot(),)*
                    $($g,)*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{HistogramSnapshot, MetricsRegistry};
    use std::sync::atomic::Ordering::Relaxed;

    fn way(i: usize) -> &'static str {
        ["hit", "miss"][i]
    }

    stats_block! {
        /// Live.
        struct Live;
        /// Snapshot.
        struct Snap;
        export_metrics(reg, labels);

        counters {
            /// A second paragraph, copied to both structs.
            lookups: "t_lookups_total", "Lookups served";
        }
        groups {
            "t_evictions_total", "Entries evicted, by reason" {
                evicted_full: reason = "full";
                evicted_ttl: reason = "ttl";
            }
        }
        families {
            by_way: [2] "t_way_total", "Lookups by outcome", "way" => way;
        }
        histograms {
            fill_ns: "t_fill_ns", "Fill latency", le = HistogramSnapshot::pow2_bounds;
        }
        gauges {
            resident: u32 = "t_resident", "Entries resident";
            per_slab: Vec<u64> = "t_slab_resident", "Entries resident per slab", by "slab";
        }
    }

    stats_block! {
        /// A plain block: no live struct, no caller labels.
        #[derive(Copy)]
        struct Plain;

        counters {
            ticks: "t_ticks_total", "Ticks";
        }
    }

    fn sample() -> Snap {
        let live = Live::default();
        live.lookups.fetch_add(3, Relaxed);
        live.evicted_ttl.fetch_add(2, Relaxed);
        live.by_way[1].fetch_add(5, Relaxed);
        live.fill_ns.record(1_000);
        live.snapshot(7, vec![4, 3])
    }

    #[test]
    fn snapshot_copies_every_member() {
        let snap = sample();
        assert_eq!(
            (snap.lookups, snap.evicted_full, snap.evicted_ttl),
            (3, 0, 2)
        );
        assert_eq!(snap.by_way, [0, 5]);
        assert_eq!((snap.fill_ns.count, snap.fill_ns.max), (1, 1_000));
        assert_eq!((snap.resident, snap.per_slab.as_slice()), (7, &[4, 3][..]));
    }

    #[test]
    fn merge_sums_everything_but_gauges() {
        let mut total = sample();
        total.merge(&sample());
        assert_eq!((total.lookups, total.evicted_ttl), (6, 4));
        assert_eq!(total.by_way, [0, 10]);
        assert_eq!(total.fill_ns.count, 2);
        assert_eq!(total.resident, 7);
        let mut from_empty = Snap::default();
        from_empty.merge(&sample());
        assert_eq!(from_empty.lookups, 3);
        assert_eq!(from_empty.fill_ns, sample().fill_ns);
    }

    #[test]
    fn export_names_every_member_once_with_its_labels() {
        let mut reg = MetricsRegistry::new();
        sample().export_metrics(&mut reg, &[("shard", "1")]);
        let mut plain = Plain { ticks: 4 };
        plain.merge(&Plain { ticks: 5 });
        plain.export_metrics(&mut reg);
        let prom = reg.render_prometheus();
        crate::validate_prometheus(&prom).expect("valid exposition");
        for line in [
            "# HELP t_lookups_total Lookups served",
            "t_lookups_total{shard=\"1\"} 3",
            "t_evictions_total{shard=\"1\",reason=\"full\"} 0",
            "t_evictions_total{shard=\"1\",reason=\"ttl\"} 2",
            "t_way_total{shard=\"1\",way=\"miss\"} 5",
            "t_fill_ns_bucket{shard=\"1\",le=\"1024\"} 1",
            "t_fill_ns_sum{shard=\"1\"} 1000",
            "# TYPE t_resident gauge",
            "t_resident{shard=\"1\"} 7",
            "t_slab_resident{shard=\"1\",slab=\"1\"} 3",
            "t_ticks_total 9",
        ] {
            assert!(
                prom.lines().any(|l| l == line),
                "missing `{line}` in:\n{prom}"
            );
        }
        assert_eq!(prom.matches("# TYPE t_evictions_total").count(), 1);
    }
}
