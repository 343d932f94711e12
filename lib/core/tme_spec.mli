(** Executable monitors for TME_Spec (paper §3.1):
    ME1 mutual exclusion, ME2 starvation freedom, ME3 first-come
    first-serve.

    Theorem 5 states that every implementation of Lspec implements
    TME_Spec from initial states; these monitors are the empirical
    check — they must hold on every fault-free trace of a conforming
    implementation, and (by Theorem 8) on a suffix of every faulty
    trace of a wrapped one. *)

type vtrace = (View.t, Msg.t) Sim.Trace.t

(** {2 Monitors}

    Each clause is an incremental {!Unityspec.Online} monitor.  ME1
    and ME2 consume the per-snapshot view array (one feed per
    snapshot, in order); ME3 consumes the oracle entry stream.  A
    scenario feeds them while the engine runs; {!check_all} folds them
    over a recorded trace. *)

val me1_online : unit -> View.t array Unityspec.Online.t
(** [(∀j,k :: e.j ∧ e.k ⇒ j = k)]: at most one process eats. *)

val me2_online : n:int -> View.t array Unityspec.Online.t
(** [(∀j :: h.j ↝ e.j)]: every hungry process eventually eats. *)

val me3_online : unit -> Harness.entry_record Unityspec.Online.t
(** FCFS over the oracle entry log: if [a]'s request happened-before
    [b]'s request (exact, via oracle vector clocks), then [a]'s entry
    precedes [b]'s.  Entries must be fed in trace order. *)

val report_of_verdicts :
  me1:Unityspec.Temporal.verdict ->
  me2:Unityspec.Temporal.verdict ->
  me3:Unityspec.Temporal.verdict -> Unityspec.Report.t
(** The three clause labels paired with the given verdicts. *)

val check_all :
  n:int -> entries:Harness.entry_record list -> vtrace -> Unityspec.Report.t
(** The three monitors folded over a recorded trace and its entry log
    (in trace order). *)

(** {2 Epoch-indexed monitors}

    The regime-epoch restatement of TME_Spec over a
    {!Sim.Regime.timeline}: during a [Global] epoch the classical
    clauses apply unchanged; during a [Split] epoch ME1 weakens to at
    most one CS holder {e per connected group}, ME2 opens no new
    obligations (a minority group may starve legitimately — open
    obligations still discharge whenever served), and ME3 compares
    only entries that could have communicated (same group, or either
    entry in a global epoch).  A cross-epoch {e heal obligation}
    watches every regime change: the eater set carried across the
    transition may violate the new topology (one holder per side of a
    heal); it is tolerated while it only shrinks and must reach a
    topology-legal state before the run ends — no dual-holder
    survives heal-complete.

    {!Epoch.feed}/{!Epoch.feed_entry} consume snapshots as the engine
    runs. *)

module Epoch : sig
  type row = {
    topo : Sim.Regime.topo;
    me1 : Unityspec.Temporal.verdict;
        (** per-group mutual exclusion during this epoch *)
    row_entries : int;  (** CS entries while this epoch governed *)
  }

  type report = {
    rows : row list;  (** one per epoch of the timeline, in order *)
    heal : Unityspec.Temporal.verdict;  (** the cross-epoch obligation *)
    me2 : Unityspec.Temporal.verdict;
    me3 : Unityspec.Temporal.verdict;
    split_entries : int;
        (** CS entries during [Split] epochs — the during-partition
            grant availability a tolerant protocol must keep nonzero *)
    snapshots : int;
  }

  type t
  (** Mutable accumulator — create one per run. *)

  val create : n:int -> timeline:Sim.Regime.timeline -> t

  val feed : t -> time:int -> View.t array -> unit
  (** Consume the next snapshot's views (read during the call only). *)

  val feed_entry : t -> time:int -> Harness.entry_record -> unit
  (** Consume the next oracle CS entry, before the snapshot of the
      event that produced it. *)

  val report : t -> report

  val safe : report -> bool
  (** The safety half alone: every epoch's ME1 holds and the
      cross-epoch heal obligation holds.  This is the verdict the
      campaign's during-split cells gate on ({!Registry.during_partition}) —
      liveness and ordering are reported but not gated there. *)

  val ok : ?margin:int -> report -> bool
  (** [safe], ME3 holds, and ME2 is clean up to obligations opened
      within the final [margin] snapshots (default 300). *)


  val pp : Format.formatter -> report -> unit
end
