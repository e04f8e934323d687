use mst_trajectory::{TimeInterval, Trajectory, TrajectoryId};

/// The moving-object dataset: trajectories addressable by id.
///
/// The R-tree-like structures index individual *segments*; the store holds
/// the source trajectories, which the search needs for the exact
/// post-processing step of Section 4.4 (and which the linear-scan baseline
/// reads directly).
#[derive(Debug, Clone, Default)]
pub struct TrajectoryStore {
    trajectories: Vec<(TrajectoryId, Trajectory)>,
    /// Index into `trajectories` by id (dense ids get direct slots).
    by_id: std::collections::HashMap<TrajectoryId, usize>,
}

impl TrajectoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TrajectoryStore::default()
    }

    /// Builds a store assigning sequential ids `0..n` to the trajectories.
    pub fn from_trajectories(trajectories: Vec<Trajectory>) -> Self {
        (0..).map(TrajectoryId).zip(trajectories).collect()
    }

    /// Inserts (or replaces) a trajectory under `id`.
    pub fn insert(&mut self, id: TrajectoryId, trajectory: Trajectory) {
        if let Some(&slot) = self.by_id.get(&id) {
            self.trajectories[slot] = (id, trajectory);
        } else {
            self.by_id.insert(id, self.trajectories.len());
            self.trajectories.push((id, trajectory));
        }
    }

    /// Looks up a trajectory.
    pub fn get(&self, id: TrajectoryId) -> Option<&Trajectory> {
        self.by_id.get(&id).map(|&i| &self.trajectories[i].1)
    }

    /// Looks up a trajectory for extension in place (a streaming append).
    pub fn get_mut(&mut self, id: TrajectoryId) -> Option<&mut Trajectory> {
        self.by_id.get(&id).map(|&i| &mut self.trajectories[i].1)
    }

    /// Removes a trajectory, returning it when it was present. The last
    /// slot is swapped into the vacated one, so removal is O(1) and the
    /// iteration order of the *remaining* trajectories changes — callers
    /// that need determinism sort on id, as the search result mergers
    /// already do.
    pub fn remove(&mut self, id: TrajectoryId) -> Option<Trajectory> {
        let slot = self.by_id.remove(&id)?;
        let (_, removed) = self.trajectories.swap_remove(slot);
        if let Some((moved_id, _)) = self.trajectories.get(slot) {
            self.by_id.insert(*moved_id, slot);
        }
        Some(removed)
    }

    /// Number of stored trajectories.
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// Iterates over `(id, trajectory)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TrajectoryId, &Trajectory)> {
        self.trajectories.iter().map(|(id, t)| (*id, t))
    }

    /// Iterates over the trajectories that are valid over all of `period`
    /// (the candidates a k-MST query over that period considers).
    pub fn covering(
        &self,
        period: &TimeInterval,
    ) -> impl Iterator<Item = (TrajectoryId, &Trajectory)> {
        let period = *period;
        self.iter().filter(move |(_, t)| t.covers(&period))
    }

    /// Total number of segments across all trajectories.
    pub fn total_segments(&self) -> u64 {
        self.iter().map(|(_, t)| t.num_segments() as u64).sum()
    }
}

impl FromIterator<(TrajectoryId, Trajectory)> for TrajectoryStore {
    /// Collects a fleet into a store; a repeated id keeps its last
    /// trajectory, as with [`TrajectoryStore::insert`].
    fn from_iter<T: IntoIterator<Item = (TrajectoryId, Trajectory)>>(fleet: T) -> Self {
        let mut store = TrajectoryStore::new();
        for (id, trajectory) in fleet {
            store.insert(id, trajectory);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(t0: f64, t1: f64) -> Trajectory {
        Trajectory::from_txy(&[(t0, 0.0, 0.0), (t1, 1.0, 1.0)]).unwrap()
    }

    #[test]
    fn insert_get_replace() {
        let mut s = TrajectoryStore::new();
        s.insert(TrajectoryId(5), traj(0.0, 10.0));
        assert_eq!(s.len(), 1);
        assert!(s.get(TrajectoryId(5)).is_some());
        assert!(s.get(TrajectoryId(6)).is_none());
        s.insert(TrajectoryId(5), traj(2.0, 3.0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(TrajectoryId(5)).unwrap().start_time(), 2.0);
    }

    #[test]
    fn remove_swaps_and_keeps_lookups_consistent() {
        let mut s = TrajectoryStore::new();
        s.insert(TrajectoryId(0), traj(0.0, 1.0));
        s.insert(TrajectoryId(1), traj(1.0, 2.0));
        s.insert(TrajectoryId(2), traj(2.0, 3.0));
        assert!(s.remove(TrajectoryId(7)).is_none());
        let gone = s.remove(TrajectoryId(0)).expect("was present");
        assert_eq!(gone.start_time(), 0.0);
        assert_eq!(s.len(), 2);
        assert!(s.get(TrajectoryId(0)).is_none());
        // The swapped-in trajectory is still addressable.
        assert_eq!(s.get(TrajectoryId(2)).unwrap().start_time(), 2.0);
        assert_eq!(s.get(TrajectoryId(1)).unwrap().start_time(), 1.0);
        // Removing down to empty and re-inserting works.
        s.remove(TrajectoryId(1)).unwrap();
        s.remove(TrajectoryId(2)).unwrap();
        assert!(s.is_empty());
        s.insert(TrajectoryId(2), traj(5.0, 6.0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn from_trajectories_assigns_dense_ids() {
        let s = TrajectoryStore::from_trajectories(vec![traj(0.0, 1.0), traj(1.0, 2.0)]);
        assert_eq!(s.len(), 2);
        assert!(s.get(TrajectoryId(0)).is_some());
        assert!(s.get(TrajectoryId(1)).is_some());
        assert_eq!(s.total_segments(), 2);
    }

    #[test]
    fn covering_filters_by_period() {
        let mut s = TrajectoryStore::new();
        s.insert(TrajectoryId(0), traj(0.0, 10.0));
        s.insert(TrajectoryId(1), traj(3.0, 7.0));
        let period = TimeInterval::new(2.0, 8.0).unwrap();
        let ids: Vec<_> = s.covering(&period).map(|(id, _)| id).collect();
        assert_eq!(ids, vec![TrajectoryId(0)]);
    }
}
