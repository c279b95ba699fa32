(** Small mutable bitsets over process IDs [1..n] — the same word layout
    as {!Memory}'s per-cell reader set, packaged for the model checker's
    per-step productive-process scan and POR conflict set, and for the
    runtime's runnable set that schedules read ({!Schedule.t}). No
    operation allocates. *)

type t

val create : int -> t
(** [create n] is the empty set over [1..n]. *)

val clear : t -> unit
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
(** False (rather than an error) for values outside [1..n], so callers can
    probe with sentinels like "no current process". *)

(** {2 Members in ascending order} *)

val is_empty : t -> bool
val cardinal : t -> int

val next : t -> int -> int
(** [next t p] is the smallest member greater than [p], or [0] if there
    is none; [next t 0] is the smallest member. *)

val nth : t -> int -> int
(** [nth t k] is the [k]-th smallest member, counting from 0.
    @raise Invalid_argument unless [0 <= k < cardinal t]. *)

(** {2 Sets stored inline in an int buffer}

    A choice point records its sets as words inside a flat int buffer
    instead of as a copied {!t}. *)

val width : t -> int
(** The number of words a copy of the set takes. *)

val store : t -> int array -> int -> unit
(** [store t dst off] copies the set's {!width} words to [dst.(off ..)]. *)

val mem_stored : int array -> int -> int -> bool
(** [mem_stored words off pid] is {!mem} on the set that {!store} put at
    [words.(off ..)]; [pid] must be in [1..n]. *)
