//! Workspace-level scene store: cross-session interning of resolved
//! scenes and prepared viewpoints.
//!
//! Millions of viewers mostly look at a handful of scenes. A
//! [`SceneStore`] interns scenes and prepared views behind `Arc`s, keyed
//! by content identity, so N sessions over the same content share one
//! immutable scene and one set of prepared views — each view carrying
//! its device occupancy and, once the quality governor asks, its
//! degraded siblings ([`crate::PreparedView`]). Resolve sessions through it with
//! [`Session::prepare_shared`](crate::session::Session::prepare_shared)
//! or by setting [`crate::ServeConfig::scene_store`].
//!
//! The store is the only preparation path: classic
//! [`Session::prepare`](crate::session::Session::prepare) runs the same
//! `resolve scene → orbit camera → project → bin → probe` lookups
//! through a private store that no other session sees. A session
//! prepared through a shared store is therefore indistinguishable from
//! a classic one by construction, except for the shared `Arc` identity
//! (which the preprocessing-reuse discount keys on).

use crate::session::{self, PreparedView, SessionContent};
use gbu_hw::GbuConfig;
use gbu_scene::{GaussianScene, ScaleProfile};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Scene content identity — two specs with equal keys render the same
/// `GaussianScene` (resolution is a view property, not a scene one:
/// `Synthetic` and `SyntheticHd` with equal seed/count share a scene).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SceneKey {
    Synthetic { seed: u64, gaussians: usize },
    Dataset { name: &'static str, profile: u8 },
}

impl SceneKey {
    fn of(content: &SessionContent) -> Self {
        match content {
            SessionContent::Synthetic { seed, gaussians }
            | SessionContent::SyntheticHd { seed, gaussians, .. } => {
                SceneKey::Synthetic { seed: *seed, gaussians: *gaussians }
            }
            SessionContent::Dataset { name, profile } => {
                let tag = match profile {
                    ScaleProfile::Test => 0,
                    ScaleProfile::Bench => 1,
                    ScaleProfile::Full => 2,
                };
                SceneKey::Dataset { name, profile: tag }
            }
        }
    }
}

/// Prepared-view identity: scene + resolution + orbit + the GBU config
/// the view's occupancy probe ran against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ViewKey {
    scene: SceneKey,
    width: u32,
    height: u32,
    orbit_seed: u64,
    view: usize,
    gbu_fp: u64,
}

/// Hit/miss counters, exposed via [`SceneStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SceneStoreCounters {
    /// Scene resolutions served from the store.
    pub scene_hits: u64,
    /// Scene resolutions that had to build the scene.
    pub scene_misses: u64,
    /// View preparations served from the store (Steps ❶/❷ + occupancy
    /// probe skipped).
    pub view_hits: u64,
    /// View preparations that had to run Steps ❶/❷ + probe.
    pub view_misses: u64,
}

impl SceneStoreCounters {
    /// Hit rate over all lookups (scene + view), in percent.
    pub fn hit_rate_pct(&self) -> u64 {
        let hits = self.scene_hits + self.view_hits;
        let total = (hits + self.scene_misses + self.view_misses).max(1);
        hits * 100 / total
    }
}

#[derive(Default)]
struct StoreInner {
    /// Scene + the resolution `resolve_scene` reported when building it
    /// (authoritative for dataset content, whose dims come from the
    /// scenario camera).
    scenes: HashMap<SceneKey, (Arc<GaussianScene>, u32, u32)>,
    views: HashMap<ViewKey, Arc<PreparedView>>,
    counters: SceneStoreCounters,
}

impl StoreInner {
    /// Bumps counters and mirrors them into telemetry; `hit` selects
    /// which pair of fields `bump` increments.
    fn record(&mut self, hit: bool, bump: impl FnOnce(&mut SceneStoreCounters)) {
        bump(&mut self.counters);
        let recorder = gbu_telemetry::global();
        if recorder.is_enabled() {
            recorder.counter(if hit { "scene_store.hits" } else { "scene_store.misses" }).add(1);
            recorder.gauge("scene_store.hit_rate_pct").set(self.counters.hit_rate_pct());
        }
    }
}

/// Shared, thread-safe intern table for scenes and prepared views.
/// Cloning shares the underlying store.
#[derive(Clone, Default)]
pub struct SceneStore {
    inner: Arc<Mutex<StoreInner>>,
}

impl std::fmt::Debug for SceneStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock().unwrap();
        f.debug_struct("SceneStore")
            .field("scenes", &g.scenes.len())
            .field("views", &g.views.len())
            .field("counters", &g.counters)
            .finish()
    }
}

/// FNV-1a fingerprint of a `GbuConfig` (via its `Debug` form) — a view's
/// occupancy is only reusable across sessions on the same device config.
fn gbu_fingerprint(gbu: &GbuConfig) -> u64 {
    format!("{gbu:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

impl SceneStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters so far.
    pub fn stats(&self) -> SceneStoreCounters {
        self.inner.lock().unwrap().counters
    }

    /// Number of distinct scenes currently interned.
    pub fn scene_count(&self) -> usize {
        self.inner.lock().unwrap().scenes.len()
    }

    /// Number of distinct prepared views currently interned.
    pub fn view_count(&self) -> usize {
        self.inner.lock().unwrap().views.len()
    }

    /// The shared scene for `content` plus the content's frame
    /// resolution, building and interning the scene on first request.
    pub fn scene(&self, content: &SessionContent) -> (Arc<GaussianScene>, u32, u32) {
        let key = SceneKey::of(content);
        let cached = self.inner.lock().unwrap().scenes.get(&key).cloned();
        let (scene, built_w, built_h) = match cached {
            Some(entry) => {
                self.inner.lock().unwrap().record(true, |c| c.scene_hits += 1);
                entry
            }
            None => {
                // Build outside the lock; a concurrent duplicate build
                // just loses the `or_insert` race.
                let (built, w, h) = session::resolve_scene(content);
                let built = Arc::new(built);
                let mut g = self.inner.lock().unwrap();
                g.record(false, |c| c.scene_misses += 1);
                g.scenes.entry(key).or_insert((built, w, h)).clone()
            }
        };
        let (width, height) = match content {
            SessionContent::Synthetic { .. } => (64, 64),
            SessionContent::SyntheticHd { width, height, .. } => (*width, *height),
            SessionContent::Dataset { .. } => (built_w, built_h),
        };
        (scene, width, height)
    }

    /// Shared handle of one orbit viewpoint, preparing it (Steps ❶/❷ +
    /// occupancy probe on `gbu`) and interning it on first request.
    pub(crate) fn view(
        &self,
        content: &SessionContent,
        orbit_seed: u64,
        v: usize,
        gbu: &GbuConfig,
    ) -> Arc<PreparedView> {
        let (scene, width, height) = self.scene(content);
        let key = ViewKey {
            scene: SceneKey::of(content),
            width,
            height,
            orbit_seed,
            view: v,
            gbu_fp: gbu_fingerprint(gbu),
        };
        let cached = self.inner.lock().unwrap().views.get(&key).cloned();
        if let Some(hit) = cached {
            self.inner.lock().unwrap().record(true, |c| c.view_hits += 1);
            return hit;
        }
        let camera = session::orbit_camera(&scene, width, height, orbit_seed, v);
        let view = Arc::new(session::prepare_view(&scene, camera, gbu));
        let mut g = self.inner.lock().unwrap();
        g.record(false, |c| c.view_misses += 1);
        Arc::clone(g.views.entry(key).or_insert(view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(seed: u64) -> SessionContent {
        SessionContent::Synthetic { seed, gaussians: 50 }
    }

    #[test]
    fn scenes_are_interned_by_content() {
        let store = SceneStore::new();
        let (a, _, _) = store.scene(&synthetic(7));
        let (b, _, _) = store.scene(&synthetic(7));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.scene_count(), 1);
        let (c, _, _) = store.scene(&synthetic(8));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.scene_count(), 2);
        let s = store.stats();
        assert_eq!((s.scene_hits, s.scene_misses), (1, 2));
    }

    #[test]
    fn hd_variant_shares_the_scene_but_not_the_view() {
        let store = SceneStore::new();
        let gbu = GbuConfig::paper();
        let (a, w, h) = store.scene(&synthetic(7));
        let hd = SessionContent::SyntheticHd { seed: 7, gaussians: 50, width: 128, height: 96 };
        let (b, hw, hh) = store.scene(&hd);
        // Resolution is a view property: one scene, two framings.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((w, h), (64, 64));
        assert_eq!((hw, hh), (128, 96));
        let v_sd = store.view(&synthetic(7), 7, 0, &gbu);
        let v_hd = store.view(&hd, 7, 0, &gbu);
        assert!(!Arc::ptr_eq(&v_sd, &v_hd));
        assert_eq!(v_sd.camera.width, 64);
        assert_eq!(v_hd.camera.width, 128);
    }

    #[test]
    fn views_are_interned_with_probe_cycles() {
        let store = SceneStore::new();
        let gbu = GbuConfig::paper();
        let a = store.view(&synthetic(7), 7, 0, &gbu);
        let b = store.view(&synthetic(7), 7, 0, &gbu);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.occupancy > 0);
        let s = store.stats();
        assert_eq!((s.view_hits, s.view_misses), (1, 1));
        assert_eq!(store.view_count(), 1);
        // A different orbit viewpoint is a distinct entry.
        let c = store.view(&synthetic(7), 7, 1, &gbu);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.view_count(), 2);
    }

    #[test]
    fn hit_rate_tracks_lookups() {
        let store = SceneStore::new();
        assert_eq!(store.stats().hit_rate_pct(), 0);
        let _ = store.scene(&synthetic(1)); // miss
        let _ = store.scene(&synthetic(1)); // hit
        let _ = store.scene(&synthetic(1)); // hit
        let _ = store.scene(&synthetic(2)); // miss
        assert_eq!(store.stats().hit_rate_pct(), 50);
    }

    #[test]
    fn clones_share_the_store() {
        let store = SceneStore::new();
        let alias = store.clone();
        let (a, _, _) = store.scene(&synthetic(3));
        let (b, _, _) = alias.scene(&synthetic(3));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(alias.stats().scene_hits, 1);
    }
}
