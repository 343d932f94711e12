(** Convergence analysis: did the system stabilize, and how fast?

    "C is stabilizing to A iff every computation of C has a suffix
    that is a suffix of some computation of A that starts at an
    initial state of A."  Over the snapshots of a run we judge the suffix
    behaviourally: from the convergence point onward, mutual exclusion
    is never violated, every hungry process is served, and every eater
    releases.  Obligations still open within [tail_margin] snapshots
    of the trace end are treated as in-progress rather than failed,
    since a finite trace always truncates some computation. *)

type vtrace = (View.t, Msg.t) Sim.Trace.t

type analysis = {
  trace_len : int;
  last_fault_index : int option;
      (** index of the last injected fault, if any *)
  converged_index : int option;
      (** earliest index from which the legitimate-suffix criteria
          hold to the end of the trace *)
  recovery_steps : int option;
      (** simulated steps from the last fault (or trace start) to the
          convergence point; [Some 0] when never perturbed/immediate *)
  me1_violations : int;
      (** snapshots violating mutual exclusion after the last fault *)
  starving : Sim.Pid.t list;
      (** processes whose final hungry interval exceeds [tail_margin]
          without being served — deadlock/starvation witnesses *)
  recovered : bool;
      (** [converged_index] exists — the headline verdict *)
}

(** The analysis as a fold, fed one view snapshot at a time while the
    engine runs (O(n) state, no recorded trace); a recorded trace is
    analysed by folding the same accumulator over it ({!Online.of_trace}). *)
module Online : sig
  type t
  (** Mutable accumulator — create one per run. *)

  val create : ?tail_margin:int -> unit -> t
  (** [tail_margin] defaults to 300 snapshots. *)

  val feed : t -> time:int -> fault:bool -> View.t array -> unit
  (** [feed t ~time ~fault views] consumes the next snapshot: its
      engine [time], whether it is a fault event, and the post-event
      views.  The array is read during the call only (safe to reuse). *)

  val analysis : t -> analysis
  (** The analysis of the snapshots fed so far. *)

  val latency : t -> int option
  (** The service-round latency: simulated steps from the last fault
      fed (or the first snapshot) until every process has completed at
      least one fresh critical-section entry after it — a recovery
      measure that needs every process live again, so it scales with
      contention and ring size.  [None] while some process has not
      re-entered. *)

  val of_trace : ?tail_margin:int -> vtrace -> t
  (** Fold a recorded trace. *)
end

val pp : Format.formatter -> analysis -> unit

val service_times : ?after:int -> vtrace -> int list
(** [service_times ?after tr] lists the duration (in simulated steps)
    of every completed hungry-to-eating interval that starts at or
    after snapshot index [after] (default 0) — the per-request service
    latencies, for percentile reporting. *)
