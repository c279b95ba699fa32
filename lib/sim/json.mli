(** Minimal JSON values, emission and parsing for the observability layer
    (metrics files, trace exports, the artifact schemas). Emission
    refuses non-finite floats, so a leaked [infinity]/[neg_infinity]
    sentinel raises instead of producing invalid JSON. The parser accepts
    a strict RFC 8259 subset (no comments, no trailing commas, no key
    repeated within an object). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** must be finite when emitted *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : ?pretty:bool -> Buffer.t -> t -> unit

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents with two spaces.
    @raise Invalid_argument on a non-finite [Float]. *)

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input, including a key repeated
    within one object and arrays or objects nested more than 1024 deep
    (rejected at the first bracket past that depth, before the rest of
    the input is read). *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the value bound to [k]; [None] for missing
    keys and non-objects. *)

(** Declarative schemas for the [rme-*/1] artifacts: each artifact kind
    has exactly one {!Schema.doc} value next to its emitter, whose
    {!Schema.name} the emitter stamps into the ["schema"] member and
    whose {!Schema.check} is the only validator ([bench/validate.exe]
    looks documents up by that name). Objects are open: members a schema
    does not mention are ignored. *)
module Schema : sig
  type json := t

  type t
  (** The shape of one JSON value. *)

  type field
  (** One object member: a key, its shape, and whether it is required. *)

  type doc
  (** A named top-level document schema. *)

  val str : t
  val bool : t

  val int : ?min:int -> unit -> t
  (** An [Int] node (at least [min]). An integer literal too large for an
      OCaml int parses as a [Float], so it is rejected here. *)

  val num : ?min:float -> unit -> t
  (** A finite [Int] or [Float] (at least [min]). *)

  val enum : string list -> t
  (** A string from the list. *)

  val nullable : t -> t
  (** [Null] or the given shape. *)

  val list : t -> t
  (** An array whose every element has the given shape. *)

  val tuple : t list -> t
  (** A fixed-length array, element [i] of shape [i]. *)

  val req : string -> t -> field
  val opt : string -> t -> field

  val obj : ?where:(json -> string option) -> field list -> t
  (** An object with these members. [where] is a cross-field check run
      after every member passed; [Some msg] rejects the object. *)

  val doc : ?where:(json -> string option) -> string -> field list -> doc
  (** [doc name fields]: a top-level object whose ["schema"] member is
      the string [name], plus [fields]. *)

  val name : doc -> string

  val check : doc -> json -> (unit, string) result
  (** [Error] carries the path of the first mismatch, e.g.
      ["swarm[2].outcome.runs: expected an integer"]. *)

  val same_length : list:string -> count:string -> json -> string option
  (** A [where] check: array member [list] has as many entries as the
      int member [count] says (e.g. per-worker counts against ["n"]). *)
end
