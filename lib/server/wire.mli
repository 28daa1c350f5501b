(** The versioned transport layer of the mapping-query service: two
    codecs behind one signature, selected per connection.

    {b v1 ("json")} is the original JSON-lines transport — one request
    object per newline-terminated line, one reply object per line —
    and remains the default for bare clients: a connection speaks v1
    until it negotiates otherwise, so every pre-existing client works
    untouched.

    {b v2 ("binary")} is a length-prefixed frame transport.  Each
    frame is a 4-byte big-endian payload length followed by the
    payload; the payload's first byte is a tag:

    - ['J'] — a JSON document (any request or reply), UTF-8 bytes.
      This keeps every v1 operation expressible on a v2 connection.
    - ['A'] — a binary [analyze] request: [id] (i64 BE),
      [deadline_ms] (i32 BE, [-1] = none), [k] (u8), [n] (u8),
      [mu] (n × i32 BE), then the k×n mapping matrix row-major
      (k·n × i32 BE).  The frame length must match exactly.
    - ['V'] — a binary [analyze] verdict reply: [id] (i64 BE), a flag
      byte (bit 0 [conflict_free], bit 1 [full_rank], bit 2 always
      set and ignored on decode, bit 3 witness present), a
      store-status byte (['h']it / ['m']iss / ['o']ff / ['e']rror, see
      {!Handlers.analyze_wire}; ['f']amily when the daemon's family
      fastpath decided it),
      [decided_by] as u8 length + bytes, and, when bit 3 is set, the
      witness as u8 count + i32 BE entries.

    A connection switches from v1 to v2 through the in-band ["hello"]
    negotiation op ({!Protocol}): the request and its reply travel in
    the {e current} version; both sides switch immediately after.

    Both codecs share the same {!max_frame_bytes} input cap (1 MiB,
    equal to {!Protocol.max_line_bytes}): an oversized v2 frame is
    rejected from its length prefix alone — the decoder never buffers
    the body — exactly as an oversized v1 line is rejected without
    waiting for its newline.  The full grammar lives in
    docs/SERVER.md. *)

type version = V1 | V2

val version_name : version -> string
(** ["json"] / ["binary"] — the names used by the [hello] op and the
    [--transport] CLI flag. *)

val version_of_name : string -> version option

val max_frame_bytes : int
(** Shared input cap for both codecs, = {!Protocol.max_line_bytes}. *)

type frame =
  | Text of string
      (** A JSON document: a bare line in v1, a ['J'] frame in v2
          (in both cases without trailing newline). *)
  | Bin_analyze of {
      id : int;
      deadline_ms : int option;
      mu : int array;
      tmat : Intmat.t;
    }  (** An ['A'] frame (v2 only). *)
  | Bin_verdict of { id : int; verdict : Protocol.verdict_wire; store : string }
      (** A ['V'] frame (v2 only). *)

val encode : version -> frame -> string
(** Render one frame as wire bytes ([Text] gains the newline in v1,
    the length prefix in v2).
    @raise Invalid_argument on a [Bin_*] frame in v1, a field that
    does not fit its fixed-width encoding (i32 entries, u8 lengths),
    a negative [deadline_ms] (the frame's [-1] means none), an unknown
    store status, or a [Text] in v1 containing a newline. *)

(** {1 Decoding}

    A stateful, incremental decoder.  Feed it raw chunks as they
    arrive; pull frames until it wants more bytes.  The decoder
    {e never raises} on wire input — malformed input surfaces as
    {!Corrupt}, after which the decoder is poisoned (every further
    {!next} returns the same verdict) and the connection should be
    dropped, mirroring the v1 oversized-line contract. *)

type decoder

type result =
  | Frame of frame
  | Need_more  (** No complete frame buffered; feed more bytes. *)
  | Corrupt of string
      (** Unrecoverable framing error (oversized frame, unknown tag,
          malformed binary body).  Sticky. *)

val decoder : version -> decoder

val decoder_version : decoder -> version

val set_version : decoder -> version -> unit
(** Switch codec for all not-yet-decoded bytes — called right after a
    [hello] exchange.  Bytes already buffered are re-interpreted under
    the new version (the peer switches at exactly the same point in
    the stream). *)

val feed : decoder -> bytes -> int -> int -> unit
(** [feed d buf off len] appends a received chunk. *)

val next : decoder -> result

val buffered : decoder -> int
(** Bytes currently buffered — bounded by {!max_frame_bytes} plus one
    read chunk, because oversized inputs are rejected before their
    bodies are buffered (the adversarial decoder test asserts this). *)
