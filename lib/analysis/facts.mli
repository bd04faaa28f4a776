(** One analysed design and the facts its passes share, each computed
    on first use and then kept.

    A full lint asks the same questions of a design from several
    passes: whether its routes are well formed (every route-reading
    pass guards on it), the {!Noc_deadlock.Verify} certificate
    ([cdg-cycle], [certificate] and [deadlock-freedom]) and the
    {!Deadlock_freedom} verdict.  The context answers each once.

    The two deadlock verdicts stay separately computed: each is built
    from the network alone, and they share no CDG, arena or other
    intermediate, so the [deadlock-freedom] pass still compares two
    independent provers.

    The context also carries its consumer's floor: the least severe
    finding the consumer keeps.  A pass skips the work of a finding
    below it.  [noc_tool lint] keeps everything; job admission
    ([Noc_service.Lint.vet_job]) keeps only errors.

    A context belongs to one domain.  Its facts are lazy values, and
    forcing one from two domains at once raises, so build a context per
    analysed design on the domain that analyses it.  The network must
    not change while its context is in use: the facts would go stale. *)

open Noc_model

type t

val of_network : ?floor:Diag_code.severity -> Network.t -> t
(** A context over [net]; computes nothing yet.  [floor] (default
    [Info], keep every finding) is the least severe finding the
    consumer keeps. *)

val network : t -> Network.t

val keeps : t -> Diag_code.severity -> bool
(** [keeps t s]: a finding of severity [s] is at or above the floor. *)

val issues : t -> Validate.issue list
(** {!Noc_model.Validate.check} of the network: [[]] when every route
    is structurally well formed, so the passes that interpret routes
    may run. *)

val certificate : t -> Noc_deadlock.Verify.certificate
(** {!Noc_deadlock.Verify.certify} of the network. *)

val verdict : t -> Deadlock_freedom.verdict
(** {!Deadlock_freedom.analyze} of the network. *)
