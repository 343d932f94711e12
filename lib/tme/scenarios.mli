(** Packaged simulation scenarios.

    Everything downstream — tests, examples, the CLI, and the bench
    harness — runs experiments through this module, so a scenario is
    described once: protocol (as a first-class module), wrapper mode,
    process count, seed, horizon, and a protocol-independent fault
    script that is lowered onto the protocol's own corruption hooks. *)

type fault_spec =
  | Drop_requests of { at : int; per_chan : int }
      (** lose request messages — the paper's §4 deadlock scenario when
          applied to all in-flight requests *)
  | Drop_requests_window of { from_t : int; until_t : int }
      (** lose {e every} request in flight during the window: the
          reliable §4 deadlock injection — any process that requests
          inside the window has its request lost to all peers *)
  | Drop_any of { at : int; per_chan : int }
  | Duplicate of { at : int; per_chan : int }
  | Corrupt_messages of { at : int; per_chan : int }
  | Reorder of { at : int; per_chan : int }
  | Flush of { at : int }
  | Partition of { pid : Sim.Pid.t; from_t : int; until_t : int }
      (** process {e isolation} (not a group partition — that is
          {!Split}): every message to or from the one selected process
          is lost while the window lasts, modelling a single process
          falling off the network and recovering.  The chaos label for
          this spec remains ["partition"] for golden-report
          stability. *)
  | Corrupt_state of { at : int; procs : Sim.Faults.proc_selector }
  | Reset_state of { at : int; procs : Sim.Faults.proc_selector }
  | Crash of
      { procs : Sim.Faults.proc_selector;
        from_t : int;
        until_t : int;
        lose : bool }
      (** crash/recover ({!Sim.Faults.Crash}): the selected processes
          take no steps during [\[from_t, until_t)]; with [lose] their
          inbound messages are lost meanwhile, otherwise delivery merely
          stalls until recovery *)
  | Split of
      { groups : Sim.Pid.t list list;
        from_t : int;
        until_t : int;
        mode : Sim.Faults.heal_mode }
      (** group partition that heals ({!Sim.Faults.Split}): every
          channel between different groups is down for the window
          (unlisted pids form an implicit remainder group).
          [Lossy] loses cross-partition traffic; [Buffered] holds it
          and floods it in at the heal.  Lowering also schedules a
          {!Sim.Faults.Heal} marker at [until_t], so
          [recovery_latency] measures from the heal — the quantity the
          PARTITION experiment reports. *)
  | Delay of { at : int; chan : Sim.Faults.chan_selector; dist : Sim.Faults.delay_dist }
      (** from [at] on, messages over the selected channels are
          delivered only after a per-message delay drawn from [dist]
          (seeded by the engine's fault RNG — runs stay
          seed-deterministic).  Per-channel FIFO is preserved. *)

val burst : at:int -> fault_spec list
(** [burst ~at] is a compound transient fault: state corruption of
    every process plus message corruption and loss — the stress case
    for stabilization. *)

type result = {
  protocol : string;
  n : int;
  seed : int;
  steps : int;
  wrapper : Graybox.Harness.wrapper_mode;
  vtrace : (Graybox.View.t, Graybox.Msg.t) Sim.Trace.t;
      (** the view trace; empty unless [~record:true] *)
  entry_log : Graybox.Harness.entry_record list;
      (** oracle CS-entry records, in trace order *)
  total_entries : int;
  analysis : Graybox.Stabilize.analysis;
  recovery_latency : int option;
      (** steps from the last fault until every process completed a
          fresh CS entry ({!Graybox.Stabilize.Online.latency});
          measured from the trace start on fault-free runs *)
  live_spec : Unityspec.Report.t option;
      (** ME1/ME2/ME3 verdicts from the monitors fed during the run,
          present only with [~live_monitors:true]; equal to
          {!tme_report} of the same scenario recorded *)
  epoch_spec : Graybox.Tme_spec.Epoch.report option;
      (** the regime-epoch report ({!Graybox.Tme_spec.Epoch}): present
          exactly when the lowered plan induces a nontrivial
          {!Sim.Regime} timeline (an effective split or crash window).
          [None] on no-partition plans, whose results are
          byte-identical to pre-epoch code. *)
  sent_total : int;
  wrapper_sends : int;
  protocol_sends : int;  (** [sent_total - wrapper_sends] *)
  delivered : int;
  sim_steps : int;
}

val run :
  ?wrapper:Graybox.Harness.wrapper_mode ->
  ?faults:fault_spec list ->
  ?record:bool ->
  ?live_monitors:bool ->
  ?tail_margin:int ->
  ?think:(int * int) ->
  ?eat:(int * int) ->
  ?passive:Sim.Pid.t list ->
  (module Graybox.Protocol.S) ->
  n:int -> seed:int -> steps:int -> result
(** [run proto ~n ~seed ~steps] executes one scenario.  An engine
    observer computes the analysis, recovery latency, entry log and
    epoch report while the run proceeds; [~live_monitors:true]
    additionally feeds the {!Graybox.Tme_spec} monitors and fills
    [live_spec].

    With [~record:true] (the default) the run also keeps its view
    trace, for clause checks ({!lspec_report}, {!tme_report}) that
    fold monitors over it, and runs the full horizon.  With
    [~record:false] [vtrace] is empty and the run exits early once the
    system is permanently quiescent (deadlocked with no pending
    recovery), feeding the rest of the horizon to the observers
    synthetically — [sim_steps] then reports how far the engine
    actually ran.  Every other field is the same either way (asserted
    in the test suite). *)

val lspec_report : result -> Unityspec.Report.t
(** Lspec clause verdicts over the scenario's recorded trace — only
    meaningful on fault-free runs (see {!Graybox.Lspec}). *)

val tme_report : result -> Unityspec.Report.t
(** ME1/ME2/ME3 verdicts: {!Graybox.Tme_spec.check_all} over the
    recorded trace and the entry log. *)

val find_protocol : string -> (module Graybox.Protocol.S) option
(** Alias for {!Graybox.Registry.find_protocol}.  This module is the
    {e registration site}: loading it fills {!Graybox.Registry} with
    every implementation — the references ([ra], [ra-gcl], [lamport],
    [central]), the modification ablations ([lamport-m1],
    [lamport-m12]), the negative controls ([lamport-unmod], the
    kept-reply RA safety mutant, and the sticky-suspicion
    [ra-lease-stale]), the partition-tolerant [ra-lease], and the
    synthesized-wrapper [ra-synth] —
    together with their roles, chaos expectations, and capabilities.  Enumerate and dispatch through
    {!Graybox.Registry.all}; there is no separate protocol list here
    to drift from it. *)

val wrapped : delta:int -> unit -> Graybox.Harness.wrapper_mode
(** The paper's wrapper: [On {term = w_refined; delta}] — [W] at
    [delta = 0], [W'(δ)] above. *)

val wrapped_term : term:Graybox.Wrapper.t -> delta:int -> unit ->
  Graybox.Harness.wrapper_mode
(** [On {term; delta}] — any wrapper-DSL term (a registry entry's
    [wrapper_term], a synthesized candidate) under the same rule. *)
