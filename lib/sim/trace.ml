open Noc_model

type event =
  | Inject of { cycle : int; packet : int }
  | Acquire of { cycle : int; packet : int; channel : Channel.t }
  | Release of { cycle : int; packet : int; channel : Channel.t }
  | Hop of { cycle : int; packet : int; flit : int; channel : Channel.t }
  | Deliver of { cycle : int; packet : int }

let recorder () =
  let events = ref [] in
  let emit e = events := e :: !events in
  let dump () = List.rev !events in
  (emit, dump)
