(** The asynchronous execution engine.

    The paper's system model: processes communicate solely by message
    passing over FIFO channels; execution is asynchronous (every
    process at its own speed, arbitrary finite transmission delays).
    The engine realises this as a randomized interleaving scheduler: at
    each step it picks — deterministically from the seed — one enabled
    move, either the delivery of some channel's head message or an
    enabled internal action of some process.  Random interleaving makes
    every enabled move occur with probability 1 in long runs, which is
    the probabilistic counterpart of the weak fairness the UNITY
    [leads-to] obligations assume.

    The engine is a functor so that protocols, wrappers, and clients
    compose outside of it; it knows nothing about mutual exclusion. *)

module type NODE = sig
  type state
  (** A process's complete local state (protocol + any composed
      wrapper/client state). *)

  type msg

  val receive :
    self:Pid.t -> from:Pid.t -> msg -> state -> state * (Pid.t * msg) list
  (** [receive ~self ~from m s] handles delivery of [m], returning the
      new state and messages to send as [(destination, payload)]. *)

  val actions :
    self:Pid.t -> state -> (string * (state -> state * (Pid.t * msg) list)) list
  (** [actions ~self s] lists the internal actions currently enabled at
      [s], each with a label (used for trace readability and for
      attributing the messages it sends in {!Metrics}).  The scheduler
      picks at most one per step. *)
end

module Make (N : NODE) : sig
  type policy =
    | Weighted_random
        (** pick uniformly among enabled moves, weighted — the default;
            probabilistically fair *)
    | Round_robin
        (** rotate deterministically through the enabled-move list —
            deterministic fairness, useful for debugging (still
            seed-reproducible: the rotation depends only on time) *)

  type config = {
    n : int;  (** number of processes *)
    seed : int;  (** master seed; equal seeds give equal executions *)
    deliver_weight : int;
        (** scheduling weight of each pending delivery (default 2) *)
    internal_weight : int;
        (** scheduling weight of each enabled internal action *)
    policy : policy;
    record : bool;  (** keep a full trace (costs memory) *)
  }
  (** The scheduler keeps incremental move indexes (a Fenwick tree of
      per-process action counts and the network's rank/select live
      set), so each step costs O(log n) rather than a rescan of all
      processes and channels. *)

  val config : ?deliver_weight:int -> ?internal_weight:int -> ?policy:policy ->
    ?record:bool -> n:int -> seed:int -> unit -> config

  type t

  val create : config -> init:(Pid.t -> N.state) -> t
  (** [create cfg ~init] builds the initial global state with empty
      channels ("Init" in the paper's Lspec). *)

  (** {2 Observation} *)

  val time : t -> int
  val n_processes : t -> int
  val state : t -> Pid.t -> N.state
  val states : t -> N.state array
  (** [states t] is a copy; mutating it does not affect the engine. *)

  val network : t -> N.msg Network.t
  val metrics : t -> Metrics.t
  val trace : t -> (N.state, N.msg) Trace.t
  (** [trace t] is the chronological trace (empty unless
      [cfg.record]). *)

  val crashed : t -> Pid.t -> bool
  (** [crashed t p] holds while a {!Faults.Crash} window covers [p]: the
      process takes no internal actions and receives no deliveries until
      its recovery time.  In lose-deliveries mode its inbound channels
      are drained at each step while the window lasts. *)

  val quiescent : t -> bool
  (** [quiescent t] holds when no move is enabled, no process is
      inside a crash window, {e and} no message is staged for later
      delivery (delayed or buffered behind a partition) — the
      execution is permanently quiescent: every future fault-free step
      is a [Stutter] that changes nothing.  The sound early-exit test
      for runs that keep no trace (deadlocks). *)

  (** {2 Streaming observation}

      Observers receive one {!Observer.step} at exactly the points a
      snapshot would be recorded — [Init] on attachment, each [step],
      each [apply_fault] — so the step stream equals the trace the
      engine would record, independently of [cfg.record]. *)

  val add_observer : t -> (N.state, N.msg) Observer.sink -> unit
  (** [add_observer t f] registers [f] (called in registration order)
      and immediately feeds it an [Init] step of the current state:
      attached right after {!create}, [f] sees exactly the recorded
      trace, snapshot for snapshot. *)

  val observe : t -> (N.state, N.msg, 'a) Observer.t -> unit -> 'a
  (** [observe t o] attaches the pure observer [o]; the returned thunk
      reads its current accumulator at any moment (mid-run verdicts). *)

  (** {2 Mutation} *)

  val set_state : t -> Pid.t -> N.state -> unit
  (** Direct state override — exposed for tests and custom faults. *)

  val set_network : t -> N.msg Network.t -> unit

  val step : t -> (N.state, N.msg) Trace.event
  (** [step t] executes one scheduler move (or records [Stutter] when
      nothing is enabled) and advances time by one. *)

  val apply_fault : t -> (N.state, N.msg) Faults.kind -> unit
  (** [apply_fault t k] injects [k] now, recording a [Fault] trace
      event.  Does not advance time. *)

  val run : ?plan:(N.state, N.msg) Faults.plan -> steps:int -> t -> unit
  (** [run ?plan ~steps t] executes [steps] scheduler steps, injecting
      each planned fault just before the step at its scheduled time. *)

  val run_until :
    ?plan:(N.state, N.msg) Faults.plan -> max_steps:int ->
    stop:(t -> bool) -> t -> int option
  (** [run_until ?plan ~max_steps ~stop t] steps until [stop t] holds
      (checked before each step, once the plan is exhausted), returning
      the time at which it held, or [None] after [max_steps]. *)
end
