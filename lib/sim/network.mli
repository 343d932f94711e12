(** The interprocess network: one FIFO channel per ordered process
    pair, as demanded by the paper's Communication Spec.

    The structure is persistent so that the engine can snapshot channel
    contents into traces and so fault injection is a pure
    transformation.  Internally channels live in a sparse map (absent
    key = empty channel) kept in two rank/select sets over channel
    ids — one source-major, one destination-major — so {!create} and
    memory are O(occupied channels) rather than O(n{^2}), {!nonempty}
    is O(live channels), {!nth_live} and {!live_into} are O(log n),
    and {!in_flight} is O(1).  Fault primitives (drop / duplicate /
    corrupt / flush / split / delay) are defined here; {e when} they
    fire is decided by {!Faults}.

    {b Delivery-ready staging.}  Every message carries a ready step.
    Undelayed sends are ready immediately, so on fault-free runs the
    staging layer is invisible (and free).  {!send}[ ~delay] and a
    {!apply_split} partition mask stage messages for a later step; a
    staged channel head keeps the whole channel out of {!nonempty} /
    {!fold_nonempty} / {!live_count} until {!advance} moves time past
    its ready step — delivery order within a channel is never changed,
    only {e when} the head becomes deliverable.  {!in_flight},
    {!fold_messages} and {!snapshot} still cover every queued message,
    staged or not. *)

type 'm t

val create : n:int -> 'm t
(** [create ~n] is an empty network over processes [0 .. n-1], at time
    0 with no partition mask. *)

val size : 'm t -> int
(** [size net] is the number of processes. *)

val send : ?delay:int -> 'm t -> src:Pid.t -> dst:Pid.t -> 'm -> 'm t
(** [send net ~src ~dst m] enqueues [m] at the back of channel
    [src→dst], ready [delay] steps from now (default [0]: deliverable
    immediately).  If the channel is under a [`Buffered] partition
    window, readiness is further deferred to the heal step.  Self-sends
    are allowed but unused by the protocols. *)

val deliver : 'm t -> src:Pid.t -> dst:Pid.t -> ('m * 'm t) option
(** [deliver net ~src ~dst] dequeues the head of channel [src→dst],
    or [None] when the channel is empty {e or its head is staged for a
    later step} — a staged head also shields everything behind it
    (FIFO).  The scheduler never hits the staged case: it draws from
    {!nonempty}/{!fold_nonempty}, which only surface ready heads. *)

val peek : 'm t -> src:Pid.t -> dst:Pid.t -> 'm option

val contents : 'm t -> src:Pid.t -> dst:Pid.t -> 'm list
(** [contents net ~src ~dst] lists channel [src→dst] front-first,
    staged messages included. *)

val channel_length : 'm t -> src:Pid.t -> dst:Pid.t -> int

val advance : 'm t -> now:int -> 'm t
(** [advance net ~now] moves the network clock to [now]: staged
    channels whose head has become ready go live, and partition-mask
    entries whose window has elapsed are retired.  O(1) when nothing
    is staged or masked.  [now] below the current clock is ignored
    (the clock is monotone). *)

val link_status :
  'm t -> src:Pid.t -> dst:Pid.t -> [ `Open | `Lossy of int | `Buffered of int ]
(** [link_status net ~src ~dst] reports the partition mask on channel
    [src→dst]: [`Open], or down until the given heal step.  On a
    [`Lossy] link the sender must not enqueue at all; [`Buffered]
    links accept sends ({!send} defers their readiness). *)

val nonempty : 'm t -> (Pid.t * Pid.t) list
(** [nonempty net] lists channels with a {e deliverable} (ready) head,
    in (src, dst) lexicographic order.  Channels whose head is staged
    for a later step are excluded. *)

val fold_nonempty :
  ('acc -> src:Pid.t -> dst:Pid.t -> 'acc) -> 'acc -> 'm t -> 'acc
(** [fold_nonempty f acc net] folds over the ready channels in the
    same (src, dst) order as {!nonempty}, without materializing the
    list — the scheduler's per-step path. *)

val nth_live : 'm t -> int -> Pid.t * Pid.t
(** [nth_live net k] is the [k]-th ready channel in the {!nonempty}
    order, in O(log n) — the scheduler's delivery draw.
    @raise Invalid_argument unless [0 <= k < live_count net]. *)

val live_count : 'm t -> int
(** [live_count net] is the number of ready channels, in O(1). *)

val live_into : 'm t -> dst:Pid.t -> int
(** [live_into net ~dst] counts ready channels into [dst], in
    O(log n) — the scheduler subtracts crashed destinations' shards
    from {!live_count} instead of rescanning. *)

val fold_inbound_nonempty :
  ('acc -> src:Pid.t -> 'acc) -> 'acc -> 'm t -> dst:Pid.t -> 'acc
(** [fold_inbound_nonempty f acc net ~dst] folds over the sources of
    every nonempty channel into [dst] — staged heads included — in
    O(log n + inbound) when nothing is staged.  The crash drain's
    enumeration. *)

val waiting_count : 'm t -> int
(** [waiting_count net] is the number of nonempty channels whose head
    is staged for a later step — nonzero only after delay or buffered
    partition faults. *)

val in_flight : 'm t -> int
(** [in_flight net] is the total number of queued messages, staged or
    not. *)

val is_empty : 'm t -> bool

(** {2 Channel-level fault primitives} *)

val apply_split :
  'm t ->
  pairs:(Pid.t * Pid.t) list ->
  until:int ->
  mode:[ `Lossy | `Buffered ] ->
  'm t * int
(** [apply_split net ~pairs ~until ~mode] masks each channel in
    [pairs] as down until step [until].  [`Lossy] also flushes the
    in-flight messages on those channels (the count flushed is
    returned); [`Buffered] restamps them ready-at-heal instead and
    returns [0].  Overlapping windows keep the latest heal step; the
    newest injection decides the mode.  A window already in the past
    is a no-op. *)

val drop_at : 'm t -> src:Pid.t -> dst:Pid.t -> pos:int -> 'm t
(** [drop_at net ~src ~dst ~pos] loses the message at front-first
    position [pos]; no-op when out of range. *)

val duplicate_at : 'm t -> src:Pid.t -> dst:Pid.t -> pos:int -> 'm t
(** [duplicate_at net ~src ~dst ~pos] duplicates the message at [pos]
    in place (the copy sits immediately behind the original). *)

val corrupt_at : 'm t -> src:Pid.t -> dst:Pid.t -> pos:int -> f:('m -> 'm) -> 'm t
(** [corrupt_at net ~src ~dst ~pos ~f] replaces the message at [pos]
    with [f msg] (readiness unchanged); no-op when out of range. *)

val reorder_at : 'm t -> src:Pid.t -> dst:Pid.t -> pos:int -> 'm t
(** [reorder_at net ~src ~dst ~pos] moves the message at [pos] to the
    back of its channel — a FIFO violation fault (the wrapper is only
    guaranteed to stabilize once FIFO behaviour resumes, which this
    transient fault permits). *)

val flush_channel : 'm t -> src:Pid.t -> dst:Pid.t -> 'm t
(** [flush_channel net ~src ~dst] empties channel [src→dst]. *)

val flush_all : 'm t -> 'm t

val map : ('m -> 'm) -> 'm t -> 'm t
(** [map f net] transforms every queued message (readiness stamps are
    preserved). *)

val fold_messages :
  ('acc -> src:Pid.t -> dst:Pid.t -> 'm -> 'acc) -> 'acc -> 'm t -> 'acc
(** [fold_messages f acc net] folds over all queued messages — staged
    or not — channel by channel, front-first. *)

val snapshot : 'm t -> (Pid.t * Pid.t * 'm list) list
(** [snapshot net] lists every nonempty channel with its contents,
    staged messages included — the trace representation. *)
