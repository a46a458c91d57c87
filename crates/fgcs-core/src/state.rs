//! The five-state resource availability model (paper §3.3, Figure 1).

use fgcs_runtime::impl_json_enum;

/// One of the five availability states of a host machine.
///
/// * `S1` — light host CPU load (`L_H < Th1`): a guest process runs at
///   default priority. Also covers transient excursions above `Th2` shorter
///   than the tolerance, during which the guest is merely suspended.
/// * `S2` — heavy host CPU load (`Th1 ≤ L_H ≤ Th2`): the guest runs at the
///   lowest priority (reniced). Also covers transient excursions above `Th2`.
/// * `S3` — host CPU load steadily above `Th2`: the guest must be terminated
///   (UEC, unrecoverable for the guest).
/// * `S4` — not enough free memory for the guest's working set: memory
///   thrashing, the guest must be terminated (UEC, unrecoverable).
/// * `S5` — the machine was revoked by its owner or failed (URR,
///   unrecoverable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum State {
    /// Full resource availability for the guest process.
    S1,
    /// Availability only at the lowest guest priority.
    S2,
    /// CPU unavailability (UEC).
    S3,
    /// Memory thrashing (UEC).
    S4,
    /// Machine unavailability (URR).
    S5,
}

impl_json_enum!(State { S1, S2, S3, S4, S5 });

impl State {
    /// All five states in index order.
    pub const ALL: [State; 5] = [State::S1, State::S2, State::S3, State::S4, State::S5];

    /// The two operational states a guest can run in.
    pub const OPERATIONAL: [State; 2] = [State::S1, State::S2];

    /// The three unrecoverable failure states.
    pub const FAILURE: [State; 3] = [State::S3, State::S4, State::S5];

    /// Zero-based index (S1 → 0, …, S5 → 4).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            State::S1 => 0,
            State::S2 => 1,
            State::S3 => 2,
            State::S4 => 3,
            State::S5 => 4,
        }
    }

    /// Inverse of [`State::index`].
    ///
    /// # Panics
    /// Panics if `i >= 5`.
    #[must_use]
    pub fn from_index(i: usize) -> State {
        State::ALL[i]
    }

    /// The state's digit in the one-digit-per-sample day encoding used on
    /// the wire and in the registry's WAL and snapshots (`'1'`–`'5'` for
    /// S1–S5).
    #[must_use]
    pub fn digit(self) -> char {
        char::from(b'1' + self.index() as u8)
    }

    /// Inverse of [`State::digit`] over a raw byte; `None` for anything
    /// but `b'1'`–`b'5'`.
    #[must_use]
    pub fn from_digit(b: u8) -> Option<State> {
        match b {
            b'1'..=b'5' => Some(State::from_index(usize::from(b - b'1'))),
            _ => None,
        }
    }

    /// `true` for S3, S4 and S5 — the states that kill a guest job.
    #[must_use]
    pub fn is_failure(self) -> bool {
        matches!(self, State::S3 | State::S4 | State::S5)
    }

    /// `true` for S1 and S2.
    #[must_use]
    pub fn is_operational(self) -> bool {
        !self.is_failure()
    }

    /// The other operational state (S1 ↔ S2); `None` for failure states.
    #[must_use]
    pub fn other_operational(self) -> Option<State> {
        match self {
            State::S1 => Some(State::S2),
            State::S2 => Some(State::S1),
            _ => None,
        }
    }
}

impl std::fmt::Display for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.index() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for s in State::ALL {
            assert_eq!(State::from_index(s.index()), s);
        }
    }

    #[test]
    fn digit_round_trips() {
        let digits: String = State::ALL.iter().map(|s| s.digit()).collect();
        assert_eq!(digits, "12345");
        for s in State::ALL {
            assert_eq!(State::from_digit(s.digit() as u8), Some(s));
        }
        for b in [b'0', b'6', b'S', b' ', 0xff] {
            assert_eq!(State::from_digit(b), None);
        }
    }

    #[test]
    fn failure_partition() {
        let failures: Vec<State> = State::ALL.into_iter().filter(|s| s.is_failure()).collect();
        assert_eq!(failures, State::FAILURE.to_vec());
        let oper: Vec<State> = State::ALL
            .into_iter()
            .filter(|s| s.is_operational())
            .collect();
        assert_eq!(oper, State::OPERATIONAL.to_vec());
    }

    #[test]
    fn other_operational_pairs() {
        assert_eq!(State::S1.other_operational(), Some(State::S2));
        assert_eq!(State::S2.other_operational(), Some(State::S1));
        assert_eq!(State::S3.other_operational(), None);
        assert_eq!(State::S5.other_operational(), None);
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(State::S1.to_string(), "S1");
        assert_eq!(State::S5.to_string(), "S5");
    }
}
