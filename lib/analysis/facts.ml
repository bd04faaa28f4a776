open Noc_model

type t = {
  net : Network.t;
  floor : Diag_code.severity;
  issues : Validate.issue list Lazy.t;
  certificate : Noc_deadlock.Verify.certificate Lazy.t;
  verdict : Deadlock_freedom.verdict Lazy.t;
}

let of_network ?(floor = Diag_code.Info) net =
  {
    net;
    floor;
    issues = lazy (Validate.check net);
    certificate = lazy (Noc_deadlock.Verify.certify net);
    verdict = lazy (Deadlock_freedom.analyze net);
  }

let network t = t.net
let keeps t severity = Diag_code.severity_at_least ~floor:t.floor severity
let issues t = Lazy.force t.issues
let certificate t = Lazy.force t.certificate
let verdict t = Lazy.force t.verdict
