type 'a t = {
  q : 'a Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable is_closed : bool;
}

let create () =
  { q = Queue.create (); lock = Mutex.create (); nonempty = Condition.create (); is_closed = false }

let try_push t x =
  Mutex.protect t.lock (fun () ->
      if t.is_closed then false
      else begin
        Queue.push x t.q;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  Mutex.protect t.lock (fun () ->
      while Queue.is_empty t.q && not t.is_closed do
        Condition.wait t.nonempty t.lock
      done;
      Queue.take_opt t.q)

let close t =
  Mutex.protect t.lock (fun () ->
      t.is_closed <- true;
      Condition.broadcast t.nonempty)

let abort t =
  Mutex.protect t.lock (fun () ->
      t.is_closed <- true;
      let dropped = List.of_seq (Queue.to_seq t.q) in
      Queue.clear t.q;
      Condition.broadcast t.nonempty;
      dropped)

let length t = Mutex.protect t.lock (fun () -> Queue.length t.q)
