(* The host's speed, measured next to the work.

   On a shared host the same code runs up to twice as slow for minutes
   at a time, because a neighbour busies the other half of the physical
   core or the caches.  Process CPU time already leaves out time spent
   waiting for a CPU (other processes, and the hypervisor's steal), but
   not a slower CPU.  So every timed piece of work is sandwiched between
   two runs of this fixed kernel, and its CPU time is scaled by how much
   slower than [nominal_s] the kernel ran around it.

   The kernel is shaped like the compiler's own work: it builds small
   expression trees, folds their constants, evaluates them under a Map
   environment, counts results in a Hashtbl, and runs a short
   array-based bytecode loop.  It uses nothing from lib/, so no change
   to the program under test moves it. *)

type expr =
  | Int of int
  | Var of int
  | Add of expr * expr
  | Mul of expr * expr
  | If of expr * expr * expr

module Env = Map.Make (Int)

let rec gen st depth =
  if depth = 0 then
    if Random.State.bool st then Int (Random.State.int st 100)
    else Var (Random.State.int st 16)
  else
    match Random.State.int st 3 with
    | 0 -> Add (gen st (depth - 1), gen st (depth - 1))
    | 1 -> Mul (gen st (depth - 1), gen st (depth - 1))
    | _ -> If (gen st (depth - 1), gen st (depth - 1), gen st (depth - 1))

let mask = 0xffff

let rec fold = function
  | (Int _ | Var _) as e -> e
  | Add (a, b) -> (
    match (fold a, fold b) with
    | Int x, Int y -> Int ((x + y) land mask)
    | a, b -> Add (a, b))
  | Mul (a, b) -> (
    match (fold a, fold b) with
    | Int x, Int y -> Int (x * y land mask)
    | a, b -> Mul (a, b))
  | If (c, a, b) -> (
    match fold c with
    | Int x -> if x land 1 = 0 then fold a else fold b
    | c -> If (c, fold a, fold b))

let rec eval env = function
  | Int n -> n
  | Var v -> Env.find v env
  | Add (a, b) -> (eval env a + eval env b) land mask
  | Mul (a, b) -> eval env a * eval env b land mask
  | If (c, a, b) -> if eval env c land 1 = 0 then eval env a else eval env b

(* A counting loop over an array program: load, add, branch. *)
let bytecode n =
  let code = Array.init 64 (fun i -> (i * 7) mod 5) in
  let regs = Array.make 8 1 in
  let pc = ref 0 and steps = ref 0 in
  while !steps < n do
    (match code.(!pc) with
    | 0 -> regs.(0) <- (regs.(0) + regs.(1)) land mask
    | 1 -> regs.(1) <- (regs.(1) + !pc) land mask
    | 2 -> regs.(2) <- regs.(0) lxor regs.(2)
    | 3 -> if regs.(2) land 1 = 0 then regs.(3) <- regs.(3) + 1
    | _ -> regs.(4) <- regs.(4) + regs.(3));
    pc := (!pc + 1) land 63;
    incr steps
  done;
  regs.(0) + regs.(4)

let kernel () =
  let st = Random.State.make [| 7; 11; 2026 |] in
  let env = Env.of_seq (Seq.init 16 (fun i -> (i, (i * 37) + 1))) in
  let counts = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 1 to 400 do
    let v = eval env (fold (gen st 7)) in
    let k = v land 1023 in
    Hashtbl.replace counts k (i + Option.value ~default:0 (Hashtbl.find_opt counts k));
    acc := !acc + v
  done;
  !acc + Hashtbl.length counts + bytecode 2_000_000

(* CPU seconds of the process: every domain, without time spent
   waiting for a CPU. *)
let cpu = Sys.time

(* The kernel's CPU time on an otherwise idle 2-core x86-64 VM, so that
   scaled times read as seconds on that machine. *)
let nominal_s = 0.0131

let measure () =
  let t0 = cpu () in
  ignore (Sys.opaque_identity (kernel ()));
  cpu () -. t0

(* Run [f], then the kernel.  Returns [f]'s result; the host's speed
   around it, from the kernel's time [before] and after (CPU seconds
   times the speed read as seconds at the nominal speed); and the
   kernel's time after, to serve as the next piece's [before]. *)
let between ~before f =
  let x = f () in
  let after = measure () in
  (x, nominal_s /. ((before +. after) /. 2.0), after)
