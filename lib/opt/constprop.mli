(** Conditional constant propagation with folding, algebraic
    simplification, constant-branch folding, and devirtualization of
    indirect calls whose callee register provably holds one function
    handle — the enabler of the paper's staged indirect-call
    optimization (§3.1). *)

(** The dataflow lattice: [Undef < Const/Fun < Nac]. *)
type value = Undef | Const of int64 | Fun of string | Nac

(** Abstract argument values at every call site: site id -> one lattice
    value per actual.  The raw material of HLO's calling-context
    descriptors S(E). *)
val values_at_calls : Ucode.Types.routine -> value list Ucode.Types.Int_map.t

(** Rewrite using the analysis; returns the new routine and a changed
    flag.  [arity_of] guards devirtualization: an indirect call only
    becomes direct when the argument count matches the target (a
    mismatched indirect call is a dynamic error and must stay one). *)
val run :
  ?arity_of:(string -> int option) ->
  Ucode.Types.routine ->
  Ucode.Types.routine * bool
