//! The valid/ready handshake wire model.
//!
//! A [`Channel`] models the combinational wires of one AXI channel for the
//! current cycle: a driver asserts `valid` together with a payload, a
//! receiver asserts `ready`, and the beat *fires* (transfers) iff both are
//! high when the clock commits. All wires are cleared at the start of every
//! cycle by [`Channel::begin_cycle`] / [`AxiPort::begin_cycle`] and must be
//! re-driven — exactly like combinational outputs of registered logic.

use std::fmt;

use crate::beat::{ArBeat, AwBeat, BBeat, RBeat, WBeat};

/// One AXI channel's wires for the current cycle.
///
/// The type parameter `T` is the beat payload ([`AwBeat`], [`WBeat`], …).
///
/// # Example
///
/// ```
/// use axi4::{Channel, WBeat};
///
/// let mut ch: Channel<WBeat> = Channel::new();
/// ch.begin_cycle();
/// ch.drive(WBeat::new(42, true));
/// assert!(ch.valid() && !ch.fires());
/// ch.set_ready(true);
/// assert!(ch.fires());
/// assert_eq!(ch.beat().unwrap().data, 42);
/// ```
#[derive(Debug, Clone)]
pub struct Channel<T> {
    valid: bool,
    ready: bool,
    payload: Option<T>,
}

impl<T> Default for Channel<T> {
    fn default() -> Self {
        Channel {
            valid: false,
            ready: false,
            payload: None,
        }
    }
}

impl<T> Channel<T> {
    /// Creates an idle channel (no valid, no ready).
    #[must_use]
    pub fn new() -> Self {
        Channel {
            valid: false,
            ready: false,
            payload: None,
        }
    }

    /// Clears all wires for a new cycle. Call before any drive pass.
    pub fn begin_cycle(&mut self) {
        self.valid = false;
        self.ready = false;
        self.payload = None;
    }

    /// Drives `valid` high with `beat` as the payload.
    pub fn drive(&mut self, beat: T) {
        self.valid = true;
        self.payload = Some(beat);
    }

    /// Drives the receiver-side `ready` wire.
    pub fn set_ready(&mut self, ready: bool) {
        self.ready = ready;
    }

    /// The `valid` wire.
    #[must_use]
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// The `ready` wire.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.ready
    }

    /// True iff the beat transfers at the next clock commit
    /// (`valid && ready`).
    #[must_use]
    pub fn fires(&self) -> bool {
        self.valid && self.ready
    }

    /// The payload currently on the wires, if `valid` is driven.
    #[must_use]
    pub fn beat(&self) -> Option<&T> {
        if self.valid {
            self.payload.as_ref()
        } else {
            None
        }
    }

    /// The payload if the handshake fires this cycle.
    #[must_use]
    pub fn fired_beat(&self) -> Option<&T> {
        if self.fires() {
            self.payload.as_ref()
        } else {
            None
        }
    }

    /// Forces `valid` low and drops the payload — models a driver that
    /// fails to present its beat (fault injection).
    pub fn suppress_valid(&mut self) {
        self.valid = false;
        self.payload = None;
    }

    /// Mutates the driven payload in place, if `valid` is high — models
    /// wire corruption (fault injection). No-op on an idle channel.
    pub fn corrupt(&mut self, f: impl FnOnce(&mut T)) {
        if self.valid {
            if let Some(p) = self.payload.as_mut() {
                f(p);
            }
        }
    }
}

impl<T: Clone> Channel<T> {
    /// Copies the driver-side wires (`valid` + payload) from `src` onto
    /// this channel — the forwarding a pass-through monitor performs.
    pub fn forward_driver_from(&mut self, src: &Channel<T>) {
        self.valid = src.valid;
        self.payload = src.payload.clone();
    }

    /// Copies the receiver-side wire (`ready`) from `src` onto this
    /// channel.
    pub fn forward_ready_from(&mut self, src: &Channel<T>) {
        self.ready = src.ready;
    }
}

impl<T: fmt::Display> fmt::Display for Channel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.payload, self.valid) {
            (Some(p), true) => write!(f, "[{} v=1 r={}]", p, u8::from(self.ready)),
            _ => write!(f, "[idle r={}]", u8::from(self.ready)),
        }
    }
}

/// The five-channel AXI4 port bundle seen at one interface.
///
/// Naming follows the subordinate's perspective for requests: `aw`, `w`
/// and `ar` are driven by the manager; `b` and `r` are driven by the
/// subordinate.
#[derive(Debug, Clone, Default)]
pub struct AxiPort {
    /// Write-address channel.
    pub aw: Channel<AwBeat>,
    /// Write-data channel.
    pub w: Channel<WBeat>,
    /// Write-response channel.
    pub b: Channel<BBeat>,
    /// Read-address channel.
    pub ar: Channel<ArBeat>,
    /// Read-data channel.
    pub r: Channel<RBeat>,
}

impl AxiPort {
    /// Creates an idle port.
    #[must_use]
    pub fn new() -> Self {
        AxiPort::default()
    }

    /// Clears all ten wire groups for a new cycle.
    pub fn begin_cycle(&mut self) {
        self.aw.begin_cycle();
        self.w.begin_cycle();
        self.b.begin_cycle();
        self.ar.begin_cycle();
        self.r.begin_cycle();
    }

    /// True if any of the five channels carries `valid` this cycle.
    #[inline]
    #[must_use]
    pub fn any_valid(&self) -> bool {
        self.aw.valid() || self.w.valid() || self.b.valid() || self.ar.valid() || self.r.valid()
    }

    /// True if any of the five channels fires this cycle.
    #[must_use]
    pub fn any_fires(&self) -> bool {
        self.aw.fires() || self.w.fires() || self.b.fires() || self.ar.fires() || self.r.fires()
    }

    /// Forwards all manager-driven wires (AW/W/AR valid+payload, B/R
    /// ready) from `mgr` onto this port. Used by pass-through monitors.
    pub fn forward_request_from(&mut self, mgr: &AxiPort) {
        self.aw.forward_driver_from(&mgr.aw);
        self.w.forward_driver_from(&mgr.w);
        self.ar.forward_driver_from(&mgr.ar);
        self.b.forward_ready_from(&mgr.b);
        self.r.forward_ready_from(&mgr.r);
    }

    /// Forwards all subordinate-driven wires (B/R valid+payload, AW/W/AR
    /// ready) from `sub` onto this port.
    pub fn forward_response_from(&mut self, sub: &AxiPort) {
        self.b.forward_driver_from(&sub.b);
        self.r.forward_driver_from(&sub.r);
        self.aw.forward_ready_from(&sub.aw);
        self.w.forward_ready_from(&sub.w);
        self.ar.forward_ready_from(&sub.ar);
    }
}

impl fmt::Display for AxiPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AW{} W{} B{} AR{} R{}",
            self.aw, self.w, self.b, self.ar, self.r
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Addr, AxiId, BurstKind, BurstLen, BurstSize};

    fn aw_beat() -> AwBeat {
        AwBeat::new(
            AxiId(0),
            Addr(0),
            BurstLen::SINGLE,
            BurstSize::default(),
            BurstKind::Incr,
        )
    }

    #[test]
    fn channel_idle_by_default() {
        let ch: Channel<WBeat> = Channel::new();
        assert!(!ch.valid() && !ch.ready() && !ch.fires());
        assert!(ch.beat().is_none());
    }

    #[test]
    fn fires_requires_both_wires() {
        let mut ch = Channel::new();
        ch.drive(WBeat::new(1, false));
        assert!(!ch.fires());
        ch.set_ready(true);
        assert!(ch.fires());
        assert_eq!(ch.fired_beat().unwrap().data, 1);
    }

    #[test]
    fn ready_without_valid_does_not_fire() {
        let mut ch: Channel<WBeat> = Channel::new();
        ch.set_ready(true);
        assert!(!ch.fires());
        assert!(ch.fired_beat().is_none());
    }

    #[test]
    fn begin_cycle_clears_everything() {
        let mut ch = Channel::new();
        ch.drive(WBeat::new(1, true));
        ch.set_ready(true);
        ch.begin_cycle();
        assert!(!ch.valid() && !ch.ready());
        assert!(ch.beat().is_none());
    }

    #[test]
    fn forwarding_copies_each_direction_separately() {
        let mut src = Channel::new();
        src.drive(WBeat::new(9, true));
        src.set_ready(true);

        let mut dst: Channel<WBeat> = Channel::new();
        dst.forward_driver_from(&src);
        assert!(dst.valid());
        assert!(!dst.ready(), "ready must not leak through driver forward");

        let mut dst2: Channel<WBeat> = Channel::new();
        dst2.forward_ready_from(&src);
        assert!(dst2.ready());
        assert!(!dst2.valid(), "valid must not leak through ready forward");
    }

    #[test]
    fn port_forwarding_request_and_response() {
        let mut mgr = AxiPort::new();
        mgr.aw.drive(aw_beat());
        mgr.b.set_ready(true);

        let mut sub = AxiPort::new();
        sub.forward_request_from(&mgr);
        assert!(sub.aw.valid());
        assert!(sub.b.ready());

        sub.aw.set_ready(true);
        sub.b.drive(BBeat::new(AxiId(0), crate::types::Resp::Okay));
        mgr.forward_response_from(&sub);
        assert!(mgr.aw.fires());
        assert!(mgr.b.fires());
    }

    #[test]
    fn any_fires_detects_single_channel() {
        let mut port = AxiPort::new();
        assert!(!port.any_fires());
        port.r.drive(RBeat::default());
        port.r.set_ready(true);
        assert!(port.any_fires());
    }

    #[test]
    fn display_is_nonempty() {
        let port = AxiPort::new();
        assert!(!port.to_string().is_empty());
    }
}
