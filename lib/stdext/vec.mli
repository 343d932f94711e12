(** Growable arrays (amortized O(1) push, O(1) random access).

    The model checker's visited table maps dense state ids to states
    and parent pointers; a [Vec.t] gives it array-speed reads by index
    while discovery keeps appending.  Reads are safe from concurrent
    domains as long as no push runs at the same time — the checker
    alternates a parallel read-only expansion phase with a serial
    merge phase that does all the pushing. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th pushed element.
    @raise Invalid_argument when [i] is out of bounds. *)

val push : 'a t -> 'a -> unit
(** [push v x] appends [x]; amortized O(1). *)

val to_list : 'a t -> 'a list
(** [to_list v] lists elements in push order. *)

val to_array : 'a t -> 'a array
(** [to_array v] copies the elements into a fresh array, push order. *)

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f v] applies [f] in push order. *)

val clear : 'a t -> unit
(** [clear v] resets the length to 0, keeping the backing storage — a
    scratch Vec refills without reallocating. *)
