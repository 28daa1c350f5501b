(** Request execution: one function per queued protocol operation,
    each returning the payload fields of its [ok] reply.

    Handlers are pure with respect to the connection — they never see
    sockets, only a {!Protocol.request} plus the shared resources
    (verdict {!Store}, per-request {!Engine.Budget}) — so the same
    code serves the daemon, the in-process bench harness and the
    differential tests. *)

exception Bad_request of string
(** A well-formed request the handlers cannot serve (unknown
    algorithm, missing space mapping, oversized replay instance …);
    the server maps it to a [bad_request] reply. *)

val builtin_algorithm : string -> int -> Algorithm.t * Intmat.t option
(** Resolve a built-in algorithm name ([matmul], [tc], [convolution],
    [bitmm], [lu]) at problem size [mu], with its default space
    mapping.  Shared with the CLI subcommands.
    @raise Bad_request on an unknown name. *)

val json_of_vec : Intvec.t -> Json.t
val json_of_int_array : int array -> Json.t
(** The array renderings every reply and CLI report uses (matrices:
    {!Protocol.json_of_mat}). *)

val json_of_pareto_point : Search.pareto_point -> Json.t
(** [{"total_time", "processors", "pi", "s"}]: one point of a Pareto
    front, as every [pareto]/[search] reply renders it. *)

val json_of_routing : Tmap.routing -> Json.t
(** [{"hops", "buffers"}] per dependence. *)

val json_of_buffer_minimal : Intvec.t * Tmap.routing -> Json.t
(** [{"pi", "registers", "routing"}]: a {!Search.buffer_minimal} pick,
    as every [search] reply renders it. *)

val schedules_fields :
  s:Intmat.t -> Intvec.t list -> (Intvec.t * Tmap.routing) option -> (string * Json.t) list
(** [mode], [s], [schedules] and [best_by_buffers]: the schedules-mode
    fields of the [search] reply and of the CLI [search] report. *)

val simulate_fields :
  algorithm:string -> mu:int -> s:Intmat.t -> pi:Intvec.t -> _ Exec.report ->
  (string * Json.t) list
(** The fourteen fields of the [simulate] reply and of the CLI
    [simulate --format json] report, in their schema order. *)

val analyze_wire :
  store:Store.t option ->
  budget:Engine.Budget.t ->
  mu:int array ->
  Intmat.t ->
  Protocol.verdict_wire * string
(** One analysis, returned pre-rendering so the daemon can encode it
    per transport (a JSON object on v1, a ['V'] frame on v2) and fan
    one result out to every singleflight waiter.  The status string is
    ["hit"] (served from the store), ["miss"] (computed and
    persisted), ["bypass"] (computed under budget pressure, hence
    bounded and not persisted), ["error"] (computed but the journal
    append failed — not an acknowledged write), or ["off"] (no store
    configured). *)

val fields_of_analyze : Protocol.verdict_wire * string -> (string * Json.t) list
(** The [verdict] + [store] reply fields of an {!analyze_wire}
    result. *)

val analyze :
  store:Store.t option ->
  budget:Engine.Budget.t ->
  mu:int array ->
  Intmat.t ->
  (string * Json.t) list
(** [fields_of_analyze (analyze_wire ...)]. *)

val execute :
  pool:Engine.Pool.t ->
  store:Store.t option ->
  budget:Engine.Budget.t ->
  Protocol.request ->
  (string * Json.t) list
(** Dispatch one queued request: [analyze], [search], [simulate] or
    [replay].
    @raise Bad_request as above.
    @raise Invalid_argument on [Ping]/[Stats]/[Drain], which the
    connection loop answers inline. *)
