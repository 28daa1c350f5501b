(** Minimal JSON support for the machine-consumable CLI output.

    Construction, compact serialization with correct string escaping,
    and a small strict parser (used by [bench diff] and the tests).
    Documents are versioned — every top-level object produced by
    {!versioned} carries ["schema_version": ]{!schema_version} so
    consumers can detect incompatible changes.  The full contract is
    documented in [docs/SCHEMA.md]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val schema_version : int
(** Current CLI output schema: 4.  v2 replaced the [telemetry] field of
    the [search] report with a [metrics] object and added the optional
    [spans] field behind [--trace]; v3 dropped the [search] report's
    budget fields ([deadline_ms], [budget_pressed],
    [budget_elapsed_ms], [interrupted]); v4 dropped [exactness] from
    every verdict and [bounded] from the [client] report.  See
    [docs/SCHEMA.md] for the migration notes. *)

val versioned : command:string -> (string * t) list -> t
(** [versioned ~command fields] is [Obj] with ["schema_version"] and
    ["command"] prepended — the shape of every CLI document. *)

val to_string : t -> string
(** Compact (single-line) serialization.  Strings are escaped per RFC
    8259; floats use a round-trippable shortest form and are always
    finite by construction. *)

val print : t -> unit
(** [to_string] to stdout, newline-terminated. *)

val option : ('a -> t) -> 'a option -> t
(** [None] becomes [Null]. *)

val ints : int list -> t
(** An array of integers. *)

val default_max_bytes : int
(** Input-size cap applied by {!parse} unless overridden: 16 MiB. *)

val default_max_depth : int
(** Nesting-depth cap applied by {!parse} unless overridden: 256. *)

val parse : ?max_bytes:int -> ?max_depth:int -> string -> (t, string) result
(** Strict parser for the subset of JSON this module emits (which is
    plain RFC 8259 minus surrogate-pair recombination in [\u] escapes).
    Numbers without [.]/[e] become [Int], others [Float].  Rejects
    trailing content after the document; errors carry a byte offset.

    The parser is safe on untrusted input (it feeds the server's
    socket protocol): inputs longer than [max_bytes] and documents
    nested deeper than [max_depth] are rejected with a structured
    [Error] — adversarial nesting can never overflow the stack. *)

val parse_file : ?max_bytes:int -> ?max_depth:int -> string -> (t, string) result
(** [parse] applied to a file's contents; I/O errors are reported as
    [Error] rather than raised. *)

val member : string -> t -> t option
(** [member key json] is the field named [key] when [json] is an
    [Obj] containing one, [None] otherwise. *)
