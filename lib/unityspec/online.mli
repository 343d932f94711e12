(** The UNITY operators as incremental monitors, for any snapshot type
    (the graybox layer instantiates it with arrays of spec-level
    views).

    A monitor carries its own state, is fed each snapshot as it is
    produced, and yields at any moment the verdict on the prefix seen
    so far; a recorded trace is checked by feeding it through
    ({!run}).  The test suite keeps whole-trace definitions of the
    operators as a reference model and asserts the verdicts equal.
    Monitors are persistent values: [feed] returns a new monitor, so
    snapshotting a monitor is free.

    - {e safety} ([invariant], [step_invariant], [unless], [stable])
      latches the first violation;
    - {e liveness} ([leads_to], [leads_to_always], [leads_to_gated])
      reports the obligations still open as [Pending]. *)

type 'a t

val verdict : 'a t -> Temporal.verdict
(** [verdict m] is the verdict on the prefix fed so far. *)

val feed : 'a t -> 'a -> 'a t

val feed_all : 'a t -> 'a list -> 'a t

val run : 'a t -> 'a list -> Temporal.verdict
(** [run m tr] = [verdict (feed_all m tr)]. *)

val invariant : ?name:string -> ('a -> bool) -> 'a t
(** [invariant p]: [p] holds in every snapshot. *)

val step_invariant : ?name:string -> ('a -> 'a -> bool) -> 'a t
(** [step_invariant r]: [r previous next] holds for every consecutive
    snapshot pair — the form of the paper's primed-variable clauses
    such as [h.j ⇒ REQ'_j = REQ_j]. *)

val unless : ?name:string -> ('a -> bool) -> ('a -> bool) -> 'a t
(** [unless p q]: whenever [p ∧ ¬q] holds in a snapshot, [p ∨ q]
    holds in the next one. *)

val stable : ?name:string -> ('a -> bool) -> 'a t
(** [stable p] is [unless p (fun _ -> false)]: once [p], always [p]. *)

val leads_to : ?name:string -> ('a -> bool) -> ('a -> bool) -> 'a t
(** [leads_to p q]: every snapshot satisfying [p] is followed
    (inclusively) by one satisfying [q]; undischarged obligations are
    [Pending]. *)

val leads_to_always : ?name:string -> ('a -> bool) -> ('a -> bool) -> 'a t
(** [leads_to_always p q] is the paper's [p ↪ q]: [leads_to p q] and
    [stable q] — a [q]-point that later fails [q] is a violation. *)

val leads_to_gated :
  ?name:string -> gate:('a -> bool) -> ('a -> bool) -> ('a -> bool) -> 'a t
(** [leads_to_gated ?name ~gate p q] is {!leads_to} with conditional
    obligation opening: a [p]-snapshot opens an obligation only when
    [gate] also holds there; [q] discharges every open obligation
    regardless of the gate.  With [gate = fun _ -> true] this is
    exactly [leads_to p q].  The regime-epoch monitors use it to scope
    progress clauses to [Global] epochs: a hungry process in a severed
    minority group owes nothing, but an obligation opened under the
    full topology still discharges whenever served. *)

val all : 'a t list -> 'a t
(** [all ms] conjoins monitors, combining verdicts with
    {!Temporal.both}. *)

val contramap : ('b -> 'a) -> 'a t -> 'b t
(** [contramap f m] adapts a monitor to a richer snapshot type — e.g.
    a view-level monitor to engine snapshots, or to an
    {!Sim.Observer} step stream. *)

val stateful :
  init:'s -> step:('s -> 'a -> 's * Temporal.verdict) -> 'a t
(** [stateful ~init ~step] builds a custom monitor from a state
    machine: each feed applies [step] to the carried state and the
    snapshot, yielding the new state and the verdict so far.  The
    verdict before any input is [Holds]; a [Violated] verdict latches
    (further input is ignored), like every safety monitor here.  For
    properties — such as FCFS over an entry stream — that no
    combination of the per-snapshot operators above expresses. *)
