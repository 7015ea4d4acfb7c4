//! Property tests for the declarative scenario schema
//! (`cfd_stream::scenario`): serialization round-trips, compiled-stream
//! determinism, and field-named rejection of malformed specs.
//!
//! The vendored proptest shim provides primitive strategies only, so
//! spec diversity comes from [`random_spec`]: a deterministic
//! SplitMix64-driven builder that explores every section (both window
//! models, all five mix kinds, optional ramp/tenants, varied grids)
//! from one drawn seed.

use cfd_stream::scenario::{
    Budget, InjectSpec, MixEntry, MixKind, RampSpec, RatioGate, ScenarioClick, ScenarioSpec,
    ScenarioWindow, SweepGrid, TenantSpec, TrafficSpec, DISPATCHES, GROUP_BY_AXES,
};
use proptest::prelude::*;

/// Ads pool size every generated spec uses, so ad indices can be drawn
/// below it.
const ADS: u32 = 64;

/// Local SplitMix64 so spec generation is deterministic per drawn seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Uniform float in `[lo, hi)`.
    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * (hi - lo)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() as u64) as usize]
    }

    /// Non-empty subsequence of `items`.
    fn subset<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut out: Vec<T> = items
            .iter()
            .filter(|_| self.next() & 1 == 1)
            .cloned()
            .collect();
        if out.is_empty() {
            out.push(self.pick(items).clone());
        }
        out
    }
}

fn random_mix_kind(r: &mut Mix) -> MixKind {
    match r.range(0, 5) {
        0 => MixKind::Unique,
        1 => MixKind::Zipf {
            universe: r.range(10, 5_000) as usize,
            skew: r.f64(0.0, 2.0),
        },
        2 => MixKind::Botnet {
            bots: r.range(1, 1_000) as u32,
            attack_fraction: r.f64(0.0, 0.99),
            target_ad: r.range(0, u64::from(ADS)) as u32,
        },
        3 => MixKind::FlashCrowd {
            crowd_fraction: r.f64(0.0, 1.0),
            second_click_prob: r.f64(0.0, 0.99),
            hot_ad: r.range(0, u64::from(ADS)) as u32,
        },
        _ => MixKind::Crawler {
            crawlers: r.range(1, 10_000) as u32,
            period: r.range(1, 100),
        },
    }
}

/// Builds a valid spec exploring the whole schema from one seed.
fn random_spec(seed: u64) -> ScenarioSpec {
    let mut r = Mix(seed);
    let timed = r.next() & 1 == 1;
    let window = if timed {
        ScenarioWindow::Time {
            n: r.range(64, 8_192) as usize,
            window_units: r.range(2, 64),
            sub_units: r.range(1, 8),
            unit_ticks: r.range(1, 2_048),
        }
    } else {
        ScenarioWindow::Count {
            n: r.range(64, 8_192) as usize,
        }
    };
    let mix = (0..r.range(1, 5))
        .map(|_| MixEntry {
            weight: r.f64(0.01, 10.0),
            kind: random_mix_kind(&mut r),
        })
        .collect();
    let algos: Vec<&str> = if timed {
        r.subset(&["time-tbf", "time-gbf", "auto"])
    } else {
        r.subset(&["tbf", "gbf", "apbf", "swbf", "jumping-tbf", "auto"])
    };
    let name_pool = ["alpha", "beta-2", "gamma", "sweep-x", "d7"];
    // `auto` resolves from cells, so a bits grid leaves it out.
    let bits = !algos.contains(&"auto") && r.next() & 1 == 1;
    let (budget, unused): (fn(usize) -> Budget, _) = if bits {
        (Budget::BitsPerElement, "cells_per_element")
    } else {
        (Budget::CellsPerElement, "bits_per_element")
    };
    let strings = |v: Vec<&str>| v.into_iter().map(str::to_owned).collect();
    let mut sweep = SweepGrid {
        algos: strings(algos),
        budgets: r
            .subset(&[4usize, 14, 272])
            .into_iter()
            .map(budget)
            .collect(),
        hash_counts: r.subset(&[4usize, 8, 10]),
        sub_windows: r.subset(&[4usize, 8, 16]),
        layouts: strings(r.subset(&["scattered", "blocked"])),
        shards: r.subset(&[1usize, 2, 4]),
        batches: r.subset(&[1usize, 64, 256, 512]),
        dispatches: strings(r.subset(DISPATCHES)),
        target_fp: r.f64(0.001, 0.5),
        group_by: String::new(),
    };
    let axes: Vec<&str> = GROUP_BY_AXES
        .iter()
        .copied()
        .filter(|&a| a != unused)
        .collect();
    sweep.group_by = (*r.pick(&axes)).to_owned();
    // One gate over the first axis the grid gives two values.
    let gates = axes
        .iter()
        .map(|&a| (a, sweep.axis_values(a)))
        .find(|(_, v)| v.len() > 1)
        .map(|(axis, values)| RatioGate {
            axis: axis.to_owned(),
            num: values[1].clone(),
            den: values[0].clone(),
            floor: r.f64(0.5, 2.0),
            algos: vec![sweep.algos[0].clone()],
        })
        .into_iter()
        .collect();
    ScenarioSpec {
        name: (*r.pick(&name_pool)).to_owned(),
        description: if r.next() & 1 == 1 {
            "generated case, all sections".to_owned()
        } else {
            String::new()
        },
        seed: r.next(),
        clicks: r.range(1, 50_000),
        window,
        traffic: TrafficSpec {
            publishers: r.range(1, 64) as u32,
            ads: ADS,
            mix,
        },
        inject: InjectSpec {
            rate: r.f64(0.0, 0.5),
            max_lag: r.range(1, 4_096) as usize,
        },
        ramp: (r.next() & 1 == 1).then(|| {
            let low = r.f64(0.5, 2.0);
            RampSpec {
                period: r.range(100, 10_000),
                low,
                high: low + r.f64(0.0, 10.0),
            }
        }),
        tenants: (r.next() & 1 == 1).then(|| TenantSpec {
            count: r.range(1, 10_000) as u32,
            skew: r.f64(0.0, 2.0),
        }),
        sweep,
        gates,
    }
}

proptest! {
    /// Serialized specs round-trip: `parse(to_toml(spec)) == spec` for
    /// any valid spec, floats included.
    #[test]
    fn spec_to_toml_round_trips(seed in any::<u64>()) {
        let spec = random_spec(seed);
        let text = spec.to_toml();
        let again = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n---\n{text}"));
        prop_assert_eq!(spec, again);
    }

    /// spec → parse → compile → stream is deterministic for a fixed
    /// seed: two independent compilations emit identical clicks, and so
    /// does a compilation of the re-parsed serialization.
    #[test]
    fn compiled_streams_are_deterministic(seed in any::<u64>()) {
        let spec = random_spec(seed);
        let take = spec.clicks.min(500) as usize;
        let a: Vec<ScenarioClick> = spec.compile().take(take).collect();
        let b: Vec<ScenarioClick> = spec.compile().take(take).collect();
        prop_assert_eq!(&a, &b);
        let reparsed = ScenarioSpec::parse(&spec.to_toml()).expect("round-trip");
        let c: Vec<ScenarioClick> = reparsed.compile().take(take).collect();
        prop_assert_eq!(&a, &c);
    }

    /// Unknown keys anywhere in a section are rejected with the full
    /// field path, not silently ignored.
    #[test]
    fn unknown_keys_are_rejected_by_path(seed in any::<u64>(), pick in 0usize..6) {
        let keys = ["bogus", "rate_x", "lagg", "zz", "extra_knob", "q"];
        let key = keys[pick];
        let spec = random_spec(seed);
        let text = spec
            .to_toml()
            .replace("[inject]", &format!("[inject]\n{key} = 1"));
        let err = ScenarioSpec::parse(&text).expect_err("must reject the unknown key");
        prop_assert_eq!(err.path, format!("inject.{key}"));
        prop_assert!(err.message.contains("unknown key"), "{}", err.message);
    }

    /// Out-of-range values name the exact field that failed.
    #[test]
    fn out_of_range_inject_rate_names_the_field(seed in any::<u64>(), rate in 1.0f64..10.0) {
        let mut bad = random_spec(seed);
        bad.inject = InjectSpec { rate, max_lag: 16 };
        let err = ScenarioSpec::parse(&bad.to_toml()).expect_err("rate >= 1 must be rejected");
        prop_assert_eq!(err.path, "inject.rate");
    }
}
