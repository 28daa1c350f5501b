(** Readiness notification for the event loop ({!Reactor}): [poll(2)]
    through a small C stub, with a pure-OCaml {!Unix.select} fallback.

    The backend is chosen once at startup: [SHANGFORTES_POLL=select]
    in the environment forces the fallback (the test suite runs the
    event loop under both); otherwise the stub is probed once and
    [select] is used only if the probe fails.  Both backends present
    the same interface and the same semantics — a connection readable
    at EOF and a peer reset both surface as readable, so the caller
    discovers the condition from the subsequent [read]. *)

type interest = { want_read : bool; want_write : bool }

type event = { ready_read : bool; ready_write : bool; ready_error : bool }
(** [ready_error] covers POLLERR / POLLHUP-without-data / POLLNVAL;
    the select fallback folds these into [ready_read] (the
    descriptor is readable at EOF), which callers must treat
    identically. *)

type backend = Native_poll | Select

val backend : unit -> backend
(** The backend in use (decided on first {!wait}). *)

val wait :
  (Unix.file_descr * interest) list -> timeout_ms:int -> (Unix.file_descr * event) list
(** Block until at least one descriptor is ready or the timeout
    elapses ([timeout_ms < 0] waits forever).  Returns one event per
    {e ready} descriptor, in input order; an interrupted wait (EINTR)
    returns the empty list, so callers simply re-evaluate state and
    wait again. *)
