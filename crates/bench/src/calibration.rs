//! One [`SeqCost`] per STAMP app and preset: the price of a recorded
//! transaction in `fig10` and `ablation_eager`. Verbatim output of
//! `cargo run --release -q -p rococo-bench --bin calibrate`; not edited.
//!
//! Provenance: Intel(R) Xeon(R) Processor, nproc 2, K = 5, 2026-10-19, commit c1ae792-dirty.
//! Every `base_ns` includes the recorder's own bookkeeping, which each
//! recorded `exec_ns` spans (its clock reads and its log push).

use rococo_sim::SeqCost;
use rococo_stamp::apps::AppId;
use rococo_stamp::harness::Preset;

#[rustfmt::skip]
pub(crate) const TABLE: [(AppId, Preset, SeqCost); 27] = [
    (AppId::Genome, Preset::Tiny, SeqCost { base_ns: 250.9, access_ns: 28.42 }), // R² 0.86; one recording: base 223.8–356.9, access 27.2–46.3
    (AppId::Intruder, Preset::Tiny, SeqCost { base_ns: 161.1, access_ns: 39.87 }), // R² 0.33; one recording: base 161.0–199.1, access 39.8–78.4
    (AppId::KmeansHigh, Preset::Tiny, SeqCost { base_ns: 477.6, access_ns: 0.00 }), // R² 0.00; one recording: base 479.1–500.5, access 0.0–0.0
    (AppId::KmeansLow, Preset::Tiny, SeqCost { base_ns: 614.0, access_ns: 0.00 }), // R² 0.00; one recording: base 617.2–653.1, access 0.0–0.0
    (AppId::Labyrinth, Preset::Tiny, SeqCost { base_ns: 195.0, access_ns: 134.10 }), // R² 0.99; one recording: base 188.2–631.3, access 129.9–141.4
    (AppId::Ssca2, Preset::Tiny, SeqCost { base_ns: 363.0, access_ns: 19.90 }), // R² 0.46; one recording: base 338.2–379.8, access 18.2–23.4
    (AppId::VacationHigh, Preset::Tiny, SeqCost { base_ns: 348.7, access_ns: 65.88 }), // R² 0.66; one recording: base 210.4–438.7, access 39.8–96.4
    (AppId::VacationLow, Preset::Tiny, SeqCost { base_ns: 450.3, access_ns: 65.22 }), // R² 0.71; one recording: base 412.7–506.6, access 62.6–73.0
    (AppId::Yada, Preset::Tiny, SeqCost { base_ns: 362.6, access_ns: 52.22 }), // R² 0.95; one recording: base 360.5–392.1, access 50.9–59.8
    (AppId::Genome, Preset::Small, SeqCost { base_ns: 258.3, access_ns: 29.69 }), // R² 0.78; one recording: base 208.6–290.5, access 28.0–55.9
    (AppId::Intruder, Preset::Small, SeqCost { base_ns: 188.2, access_ns: 35.35 }), // R² 0.47; one recording: base 182.4–192.7, access 35.3–43.2
    (AppId::KmeansHigh, Preset::Small, SeqCost { base_ns: 898.4, access_ns: 0.00 }), // R² 0.00; one recording: base 891.6–959.4, access 0.0–0.0
    (AppId::KmeansLow, Preset::Small, SeqCost { base_ns: 1207.9, access_ns: 0.00 }), // R² 0.00; one recording: base 1226.2–1320.8, access 0.0–0.0
    (AppId::Labyrinth, Preset::Small, SeqCost { base_ns: 291.9, access_ns: 144.00 }), // R² 0.99; one recording: base 279.2–299.4, access 141.2–147.9
    (AppId::Ssca2, Preset::Small, SeqCost { base_ns: 410.0, access_ns: 12.27 }), // R² 0.60; one recording: base 417.8–469.1, access 11.6–12.7
    (AppId::VacationHigh, Preset::Small, SeqCost { base_ns: 291.3, access_ns: 51.69 }), // R² 0.77; one recording: base 268.4–411.6, access 51.2–79.3
    (AppId::VacationLow, Preset::Small, SeqCost { base_ns: 2810.6, access_ns: 26.38 }), // R² 0.70; one recording: base 2618.4–3507.1, access 24.3–29.9
    (AppId::Yada, Preset::Small, SeqCost { base_ns: 402.9, access_ns: 50.75 }), // R² 0.89; one recording: base 393.3–407.2, access 50.9–52.8
    (AppId::Genome, Preset::Paper, SeqCost { base_ns: 148.3, access_ns: 32.38 }), // R² 0.82; one recording: base 144.0–152.8, access 33.6–35.2
    (AppId::Intruder, Preset::Paper, SeqCost { base_ns: 197.5, access_ns: 37.20 }), // R² 0.53; one recording: base 194.5–289.6, access 38.6–39.9
    (AppId::KmeansHigh, Preset::Paper, SeqCost { base_ns: 1597.3, access_ns: 0.00 }), // R² 0.00; one recording: base 1571.0–1714.6, access 0.0–0.0
    (AppId::KmeansLow, Preset::Paper, SeqCost { base_ns: 2051.7, access_ns: 0.00 }), // R² 0.00; one recording: base 2033.7–2683.6, access 0.0–0.0
    (AppId::Labyrinth, Preset::Paper, SeqCost { base_ns: 433.8, access_ns: 142.78 }), // R² 0.99; one recording: base 401.1–471.4, access 136.9–152.9
    (AppId::Ssca2, Preset::Paper, SeqCost { base_ns: 396.8, access_ns: 15.64 }), // R² 0.59; one recording: base 389.5–504.6, access 14.8–20.4
    (AppId::VacationHigh, Preset::Paper, SeqCost { base_ns: 1686.1, access_ns: 21.76 }), // R² 0.79; one recording: base 1543.3–2636.9, access 19.9–33.2
    (AppId::VacationLow, Preset::Paper, SeqCost { base_ns: 3325.4, access_ns: 21.89 }), // R² 0.80; one recording: base 3197.7–5036.7, access 20.3–32.6
    (AppId::Yada, Preset::Paper, SeqCost { base_ns: 484.1, access_ns: 58.47 }), // R² 0.82; one recording: base 479.5–487.8, access 58.6–59.7
];
