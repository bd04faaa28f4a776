(** Deadlock-freedom verification and certificates.

    Beyond a boolean, {!certify} produces a witness: a topological
    order of the CDG, which is exactly a valid resource numbering of
    the channels (Dally & Towles' sufficient condition).  Any third
    party can re-check the certificate in linear time. *)

open Noc_model

type certificate = {
  acyclic : bool;
  n_channels : int;
  n_dependencies : int;
  numbering : (Channel.t * int) list option;
      (** A channel numbering under which every dependency increases;
          [None] when cyclic. *)
  sample_cycle : Channel.t list option;
      (** A smallest offending cycle when cyclic; [None] otherwise. *)
}

val certify : Network.t -> certificate
(** The CDG's verdict and its witness.  Route well-formedness is
    {!Noc_model.Validate.check}'s question, not this one's: certify a
    design whose routes are valid. *)

val check_numbering : Network.t -> (Channel.t * int) list -> bool
(** Re-validates a certificate numbering against the network's current
    routes: [true] iff every consecutive channel pair of every route
    strictly increases.  Channels missing from the numbering fail. *)

val pp_certificate : Format.formatter -> certificate -> unit
