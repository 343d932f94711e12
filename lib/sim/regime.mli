(** Regime epochs: the piecewise-constant communication topology a
    fault plan induces, derived {e from the plan} before the run.

    A {!Faults.Split} window cuts the process set into connected
    groups for [\[from_t, until_t)]; a {!Faults.Crash} window removes
    processes from the live set.  Segmenting the simulated time axis
    at every window boundary yields a sequence of {e epochs}, each
    with one constant topology ({!topo}).  Monitors index their specs
    by the current epoch: during a [Global] epoch the classical specs
    apply unchanged; during a [Split] epoch mutual exclusion weakens
    to {e per connected group} and liveness obligations scope to
    intra-group traffic (see {!Graybox.Tme_spec.Epoch}).

    The derivation is purely syntactic over the plan — the same plan
    the engine executes — so online monitors and offline recomputation
    see byte-identical epoch structure, and a plan without effective
    split/crash windows yields the one-epoch {!trivial} timeline whose
    monitors behave exactly like their un-epoched ancestors. *)

type phase =
  | Global  (** one connected component: the classical regime *)
  | Split   (** ≥ 2 connected groups: specs weaken per group *)

type topo = {
  epoch : int;  (** index on the timeline, [0] = initial epoch *)
  phase : phase;
  groups : Pid.t list list;
      (** the connected groups, refined across all overlapping split
          windows; canonical form — groups ordered by least member,
          members ascending.  A [Global] topo has exactly one group. *)
  live : bool array;
      (** [live.(p)] is false while [p] is inside a crash window *)
  since : int;  (** first simulated time of this epoch *)
}

type timeline
(** The full epoch sequence of one plan over [n] processes. *)

val of_plan : n:int -> ('s, 'm) Faults.plan -> timeline
(** [of_plan ~n plan] segments the time axis at every effective
    split/crash window boundary.  Windows that have zero width, or
    splits whose normalized groups do not actually partition, are
    ignored; adjacent segments with identical topology merge (so
    back-to-back identical splits are one epoch, as no global moment
    separates them). *)

val trivial : n:int -> timeline
(** One [Global] epoch from time 0 — what {!of_plan} returns for a
    plan without effective split or crash windows. *)

val nontrivial : timeline -> bool
(** Whether any epoch differs from the initial global one — the
    switch that turns epoch-indexed monitoring on. *)

val at : timeline -> int -> topo
(** [at tl t] is the topo governing simulated time [t] (times before
    the first epoch read as the first epoch). *)

val epochs : timeline -> topo list
(** All epochs in time order. *)

val group_of : topo -> Pid.t -> int
(** Index into [groups] of the group containing the pid ([-1] for an
    out-of-range pid). *)

val group_members : topo -> Pid.t -> Pid.t list
(** The members of the pid's connected group, ascending — what a
    group membership service would announce to it. *)

val same_group : topo -> Pid.t -> Pid.t -> bool

(** {1 Cursor} — monotone O(1) epoch lookup for run-time monitors *)

type cursor

val cursor : timeline -> cursor

val advance : cursor -> int -> topo
(** [advance c t] is [at tl t] for non-decreasing [t] across calls
    (amortized O(1); earlier times read the current epoch). *)

val groups_label : topo -> string
(** ["{0,1}|{2}"]-style rendering of [groups]. *)

val pp_topo : Format.formatter -> topo -> unit
