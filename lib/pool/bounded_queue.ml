exception Closed

type 'a t = {
  items : 'a Queue.t;
  capacity : int;
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bounded_queue.create: capacity < 1";
  {
    items = Queue.create ();
    capacity;
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    closed = false;
  }

let push t x =
  Mutex.lock t.mutex;
  let rec wait () =
    if t.closed then begin
      Mutex.unlock t.mutex;
      raise Closed
    end
    else if Queue.length t.items >= t.capacity then begin
      Condition.wait t.not_full t.mutex;
      wait ()
    end
  in
  wait ();
  Queue.push x t.items;
  Condition.signal t.not_empty;
  Mutex.unlock t.mutex

let try_push t x =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    raise Closed
  end
  else if Queue.length t.items >= t.capacity then begin
    Mutex.unlock t.mutex;
    false
  end
  else begin
    Queue.push x t.items;
    Condition.signal t.not_empty;
    Mutex.unlock t.mutex;
    true
  end

let pop t =
  Mutex.lock t.mutex;
  let rec wait () =
    if not (Queue.is_empty t.items) then begin
      let x = Queue.pop t.items in
      Condition.signal t.not_full;
      Mutex.unlock t.mutex;
      Some x
    end
    else if t.closed then begin
      Mutex.unlock t.mutex;
      None
    end
    else begin
      Condition.wait t.not_empty t.mutex;
      wait ()
    end
  in
  wait ()

let close t =
  Mutex.lock t.mutex;
  t.closed <- true;
  (* Wake every waiter: blocked producers must raise [Closed], blocked
     consumers must drain and then observe the close. *)
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mutex

let length t =
  Mutex.lock t.mutex;
  let n = Queue.length t.items in
  Mutex.unlock t.mutex;
  n
