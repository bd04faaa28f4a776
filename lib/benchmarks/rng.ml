(* The generator state is a plain immutable value: every operation
   returns the next state instead of mutating in place.  That makes the
   module trivially domain-safe — two domains replaying the same seed
   can never race, because there is nothing to race on — which matters
   now that benchmark builds run inside the batch service's domain
   pool.  Callers thread the state explicitly. *)

type t = int64

let make seed = Int64.of_int seed

(* SplitMix64 (Steele, Lea, Flood 2014): tiny, fast, and excellent
   stream quality for this purpose.  A step adds the golden gamma to
   the state and mixes the result.  [int] and [float] step inline, so
   the mixed value stays unboxed and a draw allocates only its result
   and the successor state; [next] returns the raw value boxed. *)
let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next state =
  let state = Int64.add state gamma in
  (mix state, state)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  let t = Int64.add t gamma in
  (* Keep 62 bits so the value stays non-negative in OCaml's 63-bit
     native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (mix t) 2) in
  (v mod bound, t)

let float t x =
  let t = Int64.add t gamma in
  let v = Int64.to_float (Int64.shift_right_logical (mix t) 11) in
  (x *. v /. 9007199254740992.0 (* 2^53 *), t)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  let i, t = int t (Array.length arr) in
  (arr.(i), t)

let sample_distinct t bound ~exclude ~count =
  let available = if exclude >= 0 && exclude < bound then bound - 1 else bound in
  if count > available then invalid_arg "Rng.sample_distinct: not enough values";
  let chosen = Hashtbl.create count in
  let rec draw t acc remaining =
    if remaining = 0 then (List.rev acc, t)
    else begin
      let v, t = int t bound in
      if v = exclude || Hashtbl.mem chosen v then draw t acc remaining
      else begin
        Hashtbl.replace chosen v ();
        draw t (v :: acc) (remaining - 1)
      end
    end
  in
  draw t [] count
