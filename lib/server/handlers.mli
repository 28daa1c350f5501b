(** Request execution: one function per queued protocol operation,
    each returning the payload fields of its [ok] reply.

    Handlers are pure with respect to the connection — they never see
    sockets, only a {!Protocol.request} plus the shared resources
    (verdict {!Store}, which they write but never read, and worker
    {!Engine.Pool}) — so the same code serves the daemon, the
    in-process bench harness and the differential tests.  Every
    request runs to its exact answer: a request's [deadline_ms] is the
    daemon's arrival-time concern, and no handler reads it. *)

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
  store:Store.t option -> mu:int array -> Intmat.t -> Protocol.verdict_wire * string
(** One analysis, computed and journaled, returned pre-rendering so
    the daemon can encode it per transport (a JSON object on v1, a
    ['V'] frame on v2) and fan one result out to every singleflight
    waiter.  It does not read the store: the daemon calls it only
    after its own lookup missed, and an answer already journaled
    meanwhile is equal, so the append is skipped.  The status string
    is ["miss"] (computed and persisted), ["error"] (computed but the
    journal append failed — not an acknowledged write), or ["off"]
    (no store configured); ["hit"] comes only from the daemon's fast
    path. *)

val fields_of_analyze : Protocol.verdict_wire * string -> (string * Json.t) list
(** The [verdict] + [store] reply fields of an {!analyze_wire}
    result. *)

val analyze : store:Store.t option -> mu:int array -> Intmat.t -> (string * Json.t) list
(** [fields_of_analyze (analyze_wire ...)]. *)

val max_search_candidates : int
(** 2^23: the most schedule candidates a [search] request may walk. *)

val search_candidates : int array -> int
(** [search_candidates mu]: the number of [Pi] with
    [Sigma |pi_i| * mu_i] at most {!Procedure51.default_max_objective}
    [mu], the candidates a [search] over an index set with bounds [mu]
    walks when it finds nothing; [max_search_candidates + 1] for any
    larger count. *)

val execute :
  pool:Engine.Pool.t -> store:Store.t option -> Protocol.request -> (string * Json.t) list
(** Dispatch one queued request: [analyze], [search], [simulate] or
    [replay].  A [search] with more than {!max_search_candidates}
    candidates, a [simulate] of more than 2^18 index points, or one
    whose [Pi] or a row of [S] spans more than 2^20 over the index set,
    is a bad request.  The CLI runs the same searches unbounded.
    @raise Bad_request as above.
    @raise Invalid_argument on [Ping]/[Stats]/[Drain], which the
    connection loop answers inline. *)
