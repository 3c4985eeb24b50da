(** Branch prediction model.

    A table of 2-bit saturating counters indexed by the low bits of the
    branch's instruction address — collisions between branches mapping
    to the same entry degrade accuracy exactly as the paper worries
    ("an increase in the total number of branches may increase the rate
    of branch collision in a branch prediction cache").

    Following the paper's description of the PA8000, *procedure return
    branches are always mispredicted*; indirect calls likewise (their
    target comes from a register). *)

type t = {
  counters : int array;       (** 0..3; >=2 predicts taken *)
  mutable branches : int;      (** everything control-flow: cond, jumps, calls, returns *)
  mutable conditional : int;
  mutable mispredicts : int;
}

(** [entries] must be a positive power of two: the table is indexed by
    the low bits of the address. *)
let create ?(entries = 256) () =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Branch_predictor.create: entries must be a power of two";
  { counters = Array.make entries 1; branches = 0; conditional = 0;
    mispredicts = 0 }

(** Record a conditional branch at [pc] with outcome [taken]; returns
    [true] if it was predicted correctly.  Only integer operations: the
    index is masked into the table, so the counter is read and written
    unchecked, and the saturating update is spelled out rather than
    going through the polymorphic [min]/[max]. *)
let conditional t ~pc ~taken =
  t.branches <- t.branches + 1;
  t.conditional <- t.conditional + 1;
  let counters = t.counters in
  let i = pc land (Array.length counters - 1) in
  let c = Array.unsafe_get counters i in
  let correct = (c >= 2) = taken in
  if not correct then t.mispredicts <- t.mispredicts + 1;
  if taken then (if c < 3 then Array.unsafe_set counters i (c + 1))
  else if c > 0 then Array.unsafe_set counters i (c - 1);
  correct

(** Unconditional direct jumps and calls: counted as branches, never
    mispredicted (the target is in the instruction). *)
let unconditional t = t.branches <- t.branches + 1

(** Returns and register-indirect calls: counted and always
    mispredicted, as on the PA8000. *)
let always_mispredicted t =
  t.branches <- t.branches + 1;
  t.mispredicts <- t.mispredicts + 1

let miss_rate t =
  if t.branches = 0 then 0.0
  else float_of_int t.mispredicts /. float_of_int t.branches

let reset t =
  Array.fill t.counters 0 (Array.length t.counters) 1;
  t.branches <- 0;
  t.conditional <- 0;
  t.mispredicts <- 0
