type 'a t = {
  capacity : int;
  q : 'a Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable is_closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Admission.create: capacity must be >= 1";
  {
    capacity;
    q = Queue.create ();
    lock = Mutex.create ();
    nonempty = Condition.create ();
    is_closed = false;
  }

let try_push t x =
  Mutex.protect t.lock (fun () ->
      if t.is_closed || Queue.length t.q >= t.capacity then false
      else begin
        Queue.push x t.q;
        Condition.signal t.nonempty;
        true
      end)

let pop_batch t ~max ~compatible =
  Mutex.protect t.lock (fun () ->
      while Queue.is_empty t.q && not t.is_closed do
        Condition.wait t.nonempty t.lock
      done;
      if Queue.is_empty t.q then None
      else begin
        let first = Queue.pop t.q in
        let batch = ref [ first ] in
        let n = ref 1 in
        let stop = ref false in
        while (not !stop) && !n < max && not (Queue.is_empty t.q) do
          if compatible first (Queue.peek t.q) then begin
            batch := Queue.pop t.q :: !batch;
            incr n
          end
          else stop := true
        done;
        Some (List.rev !batch)
      end)

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
