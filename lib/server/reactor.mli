(** The one event loop of every peer that multiplexes sockets: the
    daemon ({!Daemon}), the cluster router and the load generator
    ({!Client.load_any}).

    A reactor owns a self-pipe, an optional listener, a table of
    {!Conn.t}s and the poll round over them.  Each connection carries
    its caller's {!handler}; the caller's [tick] runs at the top of
    every round and holds its timer and drain policy.  One round:

    - [tick ()]: [None] ends {!run}; [Some deadline] bounds the wait at
      that absolute time ([infinity] waits for an event);
    - writes before the wait: every connection flushes what its socket
      takes, and a connection whose input turned corrupt
      ({!Conn.closing}) is closed once its output is out;
    - one {!Poll.wait} over the self-pipe, the listener and every
      connection: readable while it reads, writable while it has
      output queued, and writable alone while its connect is in
      progress;
    - for each ready connection, writes before reads: a writable one
      flushes, then one read hands its bytes to the handler's
      [on_read], and one flush sends the burst of replies it queued —
      unless output was already waiting on that connection (the
      router's forwarded requests and replies, queued by other
      connections' handlers), which then goes out with it, in one
      write, at the next round's writes.

    A connection closed by its caller ({!Conn.close}) leaves the table
    at the next round.  The reactor opens four spans: [reactor.flush]
    (the writes before the wait, and each flush after a read or on
    writability), [reactor.wait], [reactor.read] and
    [reactor.dispatch] (one [on_read]).

    Everything but {!wake} and {!nudge} runs on the thread that calls
    {!run}. *)

type t

type handler = {
  on_read : unit -> unit;
      (** New bytes sit in the connection's {!Conn.decoder}. *)
  on_hangup : unit -> unit;
      (** The peer hung up, the connection reset, or its connect
          failed; the reactor closes the connection right after. *)
}

val create : ?listen:Conn.listen -> unit -> t
(** The self-pipe, and with [listen] a listener bound by {!Conn.bind}.
    @raise Failure / [Unix.Unix_error] as {!Conn.bind} does. *)

val port : t -> int option
(** The listener's TCP port ([None] for a Unix socket or no
    listener). *)

val wake : t -> unit
(** Async-signal-safe drain request: one self-pipe write, nothing else,
    so a [Sys.signal] handler may call it.  The loop hands it to
    {!run}'s [wake] as [~drain:true]. *)

val nudge : t -> unit
(** Interrupt the wait so the next round re-reads shared state: sent
    by the daemon's workers after queueing output the loop must flush,
    and by the router's promotion.  Thread-safe; {!run}'s [wake] sees
    it as [~drain:false]. *)

val add : t -> ?connecting:bool -> Conn.t -> handler -> unit
(** Watch a connection.  With [~connecting:true] its nonblocking
    connect is still in progress ({!Conn.dial}): it is watched for
    writability alone until the connect completes, or fails, which
    calls [on_hangup]. *)

val run :
  t ->
  ?accept:(Conn.t -> handler option) ->
  ?wake:(drain:bool -> unit) ->
  (unit -> float option) ->
  unit
(** [run t ?accept ?wake tick]: poll rounds until [tick] returns
    [None].  With [accept] the listener is watched, and each
    connection of an accept burst is watched with the handler
    [accept] returns, or closed at once on [None].  [wake] runs when
    the self-pipe is read, with [~drain] when a {!wake} was among the
    bytes. *)

val pending : t -> bool
(** Whether any open connection still has output queued. *)

val close_listener : t -> unit
(** Stop accepting: close the listener and remove its socket file.
    Idempotent. *)

val hang_up : t -> unit
(** Stop accepting, then flush once and close every connection the
    listener accepted; connections added with {!add} stay open. *)

val close : t -> unit
(** Close the listener, every connection still open (dropping its
    queued output) and the self-pipe. *)
