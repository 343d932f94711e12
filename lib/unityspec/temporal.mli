(** Verdicts of the UNITY temporal operators over finite prefixes.

    The paper states its specifications in UNITY (Chandy–Misra):
    [p unless q], [stable p], [p is invariant], [p ↝ q] (leads-to) and
    [p ↪ q] (leads-to-always); {!Online} implements them as monitors.
    A simulator produces finite prefixes of computations, so verdicts
    come in two flavours:

    - {e safety} is decided definitively on a prefix — a violation is
      a violation;
    - {e liveness} can only be {e discharged} or left {e pending} on a
      prefix; the pending count at the end of a long run (with the
      system quiescent) is the empirical verdict. *)

type verdict =
  | Holds
  | Violated of { at : int; reason : string }
      (** safety violation at trace index [at] *)
  | Pending of { obligations : int list }
      (** liveness obligations opened at these indices and never
          discharged before the trace ended *)

val is_ok : verdict -> bool
(** [is_ok v] is [true] only for [Holds]. *)

val pp_verdict : Format.formatter -> verdict -> unit

val ok_with_tail : trace_len:int -> margin:int -> verdict -> bool
(** [ok_with_tail ~trace_len ~margin v] accepts [Holds] and accepts
    [Pending] when every open obligation was opened within the final
    [margin] snapshots — the standard allowance when checking liveness
    on a finite prefix (the run simply ended mid-obligation).
    [Violated] is never accepted. *)

(** {2 Conjunction} *)

val both : verdict -> verdict -> verdict
(** [both a b] conjoins two verdicts, preferring to report a violation
    over a pending obligation. *)

val all : verdict list -> verdict
