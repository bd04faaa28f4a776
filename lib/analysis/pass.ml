open Noc_model

type target =
  | Design of Facts.t
  | Job_file of { path : string; text : string }
  | Trace_file of { path : string; text : string }

type scope = Design_scope | Job_scope | Trace_scope

type t = {
  name : string;
  prefix : string;
  scope : scope;
  severity_floor : Diag_code.severity;
  doc : string;
  run : target -> Diagnostic.t list;
}

let applies pass target =
  match (pass.scope, target) with
  | Design_scope, Design _ | Job_scope, Job_file _ | Trace_scope, Trace_file _
    ->
      true
  | Design_scope, (Job_file _ | Trace_file _)
  | Job_scope, (Design _ | Trace_file _)
  | Trace_scope, (Design _ | Job_file _) ->
      false

let pp ppf p =
  Format.fprintf ppf "%s (%s-*, up to %a)" p.name p.prefix
    Diag_code.pp_severity p.severity_floor
