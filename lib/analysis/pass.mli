(** An analysis pass: a named, self-describing check that inspects one
    target and returns structured {!Diagnostic.t} findings.

    Passes are registered in {!Registry} (design passes) and extended
    by higher layers (the service contributes the job-file pass); the
    {!Engine} runs whichever passes apply to a target. *)

open Noc_model

type target =
  | Design of Facts.t
      (** A complete NoC design, with the facts its passes share (see
          {!Facts}).  Build one per design with {!Facts.of_network}. *)
  | Job_file of { path : string; text : string }
      (** A noc-jobs/1 batch file, as raw text plus its display path. *)
  | Trace_file of { path : string; text : string }
      (** A noc-trace/1 span-trace stream, as raw text plus its display
          path. *)

type scope = Design_scope | Job_scope | Trace_scope

type t = {
  name : string;  (** Registry name, e.g. ["routes"]. *)
  prefix : string;
      (** Stable code prefix; every diagnostic the pass emits uses it,
          e.g. ["NOC-ROUTE"]. *)
  scope : scope;
  severity_floor : Diag_code.severity;
      (** The most severe diagnostic this pass can emit.  An engine
          that only needs an exit code may skip passes whose floor is
          below the failure threshold; job admission
          ([Noc_service.Lint.vet_job]) runs only the [Error]-floor
          passes, and their context ({!Facts.keeps}) tells them to
          skip their warnings and notes too. *)
  doc : string;  (** One-line description for catalogs and [--help]. *)
  run : target -> Diagnostic.t list;
      (** Must return [[]] on targets outside the pass's scope. *)
}

val applies : t -> target -> bool
(** Scope/target agreement. *)

val pp : Format.formatter -> t -> unit
