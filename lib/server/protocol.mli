(** The JSON {e document} layer of the mapping-query service — the
    request/reply vocabulary shared by both transports of {!Wire}.

    One request object per message in, one reply object per message
    out (a bare line on the v1 transport, a frame on v2 — framing is
    {!Wire}'s concern, not this module's).  Requests carry an [op]
    selecting the operation and an optional [id] (any JSON value)
    echoed verbatim in the reply, so clients may pipeline; the
    analysis operations reuse the schema-v2 field shapes of the
    corresponding CLI subcommands.  The full grammar lives in
    [docs/SERVER.md], the field catalogue in [docs/SCHEMA.md].

    Replies are [{"id": ..., "ok": true, "op": ..., ...}] on success
    and [{"id": ..., "ok": false, "error": <code>, "detail": ...}] on
    failure, with [error] one of [parse_error], [bad_request],
    [overloaded], [draining], [internal]. *)

(** The renderable subset of an {!Analysis.verdict} — everything but
    the wall-clock [timing], which would make equal verdicts compare
    unequal — and the record the store journals, so a store hit is
    sent as it is read.  A store hit and a fresh computation of the
    same query render byte-identically through {!json_of_wire} (the
    differential server tests rely on this). *)
type verdict_wire = Store.entry = {
  conflict_free : bool;
  full_rank : bool;
  decided_by : string;
  witness : int list option;
}

val wire_of_verdict : Analysis.verdict -> verdict_wire
(** {!Store.entry_of_verdict}. *)

val json_of_wire : verdict_wire -> Json.t

(** {1 Requests} *)

type request =
  | Analyze of { mu : int array; tmat : Intmat.t; deadline_ms : int option }
  | Search of {
      algorithm : string;
      mu : int;
      s : Intmat.t option;
      pareto : bool;
      array_dim : int;
      deadline_ms : int option;
    }
  | Simulate of { algorithm : string; mu : int; s : Intmat.t option; pi : Intvec.t }
  | Replay of { instance : Check.Instance.t }
      (** Differential replay of one corpus-format instance:
          {!Analysis.check} against the brute-force oracle. *)
  | Ship of { seq : int; line : string }
      (** Journal replication (docs/CLUSTER.md): apply one raw store
          record line via {!Store.ingest_line}.  [seq] is the
          shipper's watermark for this record (the primary-journal
          byte offset just past it), echoed back in the ack so the
          shipper can resume; the receiver validates the line itself
          (its CRC travels inside it) and applies idempotently.
          Answered inline, shard-direct only — the router rejects
          it. *)
  | Ping
  | Stats
  | Drain
  | Hello of { transport : string }
      (** Transport negotiation ({!Wire}): the client names the
          transport it wants (["json"] or ["binary"]); the server
          answers in the {e current} transport and both sides switch
          immediately after.  An unknown name is a [bad_request] and
          the connection stays as it was. *)

type envelope = { id : Json.t; req : request }

val op_name : request -> string

val deadline_ms : request -> int option

val max_line_bytes : int
(** Input-size cap applied to each request line (1 MiB) — far above
    any legitimate request, far below memory exhaustion. *)

val parse_request : Json.t -> (envelope, string) result

(** {1 Client-side request builders}

    These build the JSON {e documents}; how a document travels is the
    transport's business: hand it to {!Wire.encode} as a {!Wire.Text}
    frame (or use {!Client}, which does). *)

val json_of_mat : Intmat.t -> Json.t
(** A matrix row-major, as nested arrays: the rendering every request,
    reply and CLI report uses. *)

val analyze : ?id:Json.t -> ?deadline_ms:int -> mu:int array -> Intmat.t -> Json.t

val search :
  ?id:Json.t -> ?deadline_ms:int -> ?s:Intmat.t -> ?pareto:bool -> ?array_dim:int ->
  algorithm:string -> mu:int -> unit -> Json.t

val simulate : ?id:Json.t -> ?s:Intmat.t -> algorithm:string -> mu:int -> pi:Intvec.t -> unit -> Json.t
val replay : ?id:Json.t -> Check.Instance.t -> Json.t
val ship : ?id:Json.t -> seq:int -> record:string -> unit -> Json.t
val ping : ?id:Json.t -> unit -> Json.t
val stats_request : ?id:Json.t -> unit -> Json.t
val drain : ?id:Json.t -> unit -> Json.t

val hello : ?id:Json.t -> transport:string -> unit -> Json.t
(** The negotiation document itself always travels in the connection's
    current transport. *)

(** {1 Replies} *)

val ok_reply : id:Json.t -> op:string -> (string * Json.t) list -> Json.t
val error_reply : id:Json.t -> code:string -> detail:string -> Json.t

val reply_id : Json.t -> Json.t
(** The echoed [id], [Null] when absent. *)

val reply_ok : Json.t -> bool
val error_code : Json.t -> string option
(** The [error] field of a failure reply. *)
