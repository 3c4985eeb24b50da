(* The public face of the differential-correctness subsystem: the
   semantic oracle itself (Sem) flattened into this namespace, with the
   fuzz engine, the delta-debugging reducer and the oracle-gated
   measure step as submodules. *)

include Sem
module Fuzz = Fuzz
module Reduce = Reduce
module Evaluate = Evaluate
