(** The connection code of every peer of the wire protocol: the event
    loop that serves it ({!Reactor}, under the daemon and the cluster
    router), and the client side, the router's upstream pool and
    {!Client}: the listener bind with the stale-socket policy, accept,
    the nonblocking connect, one {!Wire.decoder} and one reusable
    output buffer per connection, nonblocking read, flush and
    teardown, decoding a frame into a request with its error reply,
    the [hello] switch on both sides, and the analyze request and
    reply encoders.  What a request does stays with the caller, and
    so do fault sites: the daemon
    consults its [conn.*] sites around these calls, the router and
    the client none.

    A connection is read, polled and closed by one thread.
    Output may be appended from any thread or domain (the daemon's
    worker domains do): the output buffer, the dialect and the closed
    flag sit under one per-connection lock, so every message is
    encoded in the dialect current at its position in the stream. *)

(** {1 Listener} *)

type listen =
  | Unix_sock of string  (** Path of a Unix-domain socket. *)
  | Tcp of int           (** TCP port on 127.0.0.1; [0] picks a free port. *)

val bind : listen -> Unix.file_descr
(** A nonblocking listening socket (and SIGPIPE ignored, so a peer
    that hangs up surfaces as EPIPE).  A Unix path holding a {e dead}
    socket, left by a SIGKILLed owner, is probed with a connect,
    unlinked on refusal and bound in its place; a path with a {e live}
    listener fails, and a path that is not a socket is never unlinked.
    @raise Failure on a live listener or a non-socket path.
    @raise Unix.Unix_error when the socket cannot be bound. *)

val bound_port : Unix.file_descr -> int option
(** The TCP port of a listener ([None] for a Unix socket). *)

val close_listener : listen -> Unix.file_descr -> unit
(** Close the listener and remove its socket file.  Never raises. *)

val accept_burst : Unix.file_descr -> (Unix.file_descr -> unit) -> unit
(** Accept up to 128 pending connections, handing each nonblocking
    descriptor to the callback; returns when the listener would
    block. *)

(** {1 Connections} *)

type t

val create : Unix.file_descr -> t
(** Wrap a connected nonblocking descriptor; input and output start
    on the v1 dialect. *)

val dial : Unix.sockaddr -> (t * bool) option
(** A nonblocking connect: the connection and whether the connect is
    still in progress (TCP completes when the socket turns writable,
    a Unix socket connects or fails at once), or [None] when it fails
    at once. *)

val fd : t -> Unix.file_descr

val decoder : t -> Wire.decoder

val closed : t -> bool
(** Whether {!close} has run; output to a closed connection is
    dropped. *)

val closing : t -> bool
(** Set once the input turned corrupt ({!pull}): stop reading, close
    once the output drains. *)

val read : t -> bytes -> [ `Data | `Eof | `Blocked ]
(** One nonblocking read through the scratch buffer into the decoder;
    a reset peer reads as [`Eof]. *)

val send : ?flush:bool -> t -> (Wire.version -> string) -> bool
(** Append one message, encoded in the current dialect; with
    [~flush:true] also write what the socket takes now.  Returns
    whether bytes remain queued ([false] once closed). *)

val flush : t -> bool
(** Write what the socket takes now (a dead peer drops the bytes);
    returns whether bytes remain queued. *)

val pending : t -> bool

val shutdown : t -> unit
(** Shut both directions down without closing the descriptor: the
    peer sees EOF, the loop's next read tears the connection down. *)

val close : t -> unit
(** Idempotent. *)

(** {1 Messages} *)

val doc : Json.t -> Wire.version -> string
(** A JSON document in the given dialect, for {!send}. *)

val analyze_reply :
  id:Json.t -> bin:bool -> Protocol.verdict_wire * string -> Wire.version -> string
(** The reply to an [analyze], for {!send}: a ['V'] frame when the
    request came as an ['A'] frame ([bin]) and the connection still
    speaks v2, the JSON reply document otherwise. *)

val analyze_request :
  id:int -> ?deadline_ms:int -> mu:int array -> Intmat.t -> Wire.version -> string
(** An [analyze] request, for {!send}: an ['A'] frame on v2, the JSON
    document on v1 or when a value is wider than the frame's fixed
    fields (a deadline or entry past i32, more than 255 rows or
    columns), which a server answers as it would any JSON request. *)

val request_of_frame : Wire.frame -> (Protocol.envelope * bool, Json.t) result
(** A decoded frame as a request, paired with whether it came as an
    ['A'] frame, or the error reply it gets: [parse_error] for text
    that is not JSON (parsed with {!Protocol.max_line_bytes} and the
    default depth cap), [bad_request] echoing the id for an invalid
    document or ['A'] frame, [bad_request] for a ['V'] frame. *)

val pull : t -> reject:(Json.t -> unit) -> (bin:bool -> Protocol.envelope -> unit) -> unit
(** Hand every complete request buffered on a server-side connection
    to the callback through {!request_of_frame}, and every error reply
    it returns to [reject].  A corrupt stream gets one [parse_error]
    and marks the connection {!closing}. *)

val hello :
  t -> id:Json.t -> max:Wire.version -> string -> (Wire.version, Json.t) result
(** The server side of [hello]: for a known transport no newer than
    [max], queue the ack in the current dialect and switch both
    directions right after it; otherwise return the [bad_request]
    reply. *)

val upgrade : t -> Wire.version -> unit
(** The client side of [hello]: queue the request and switch the
    output at once (the server switches its input right after reading
    it); switch the input when the ack arrives, with
    {!Wire.set_version} on {!decoder}. *)
