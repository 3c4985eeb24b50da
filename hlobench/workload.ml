(* The benchmark's workloads.  README.md records why each was chosen and
   which layers it stresses. *)

type t = Spec_ref | Spec_starved | Scale

let all = [ Spec_ref; Spec_starved; Scale ]

let name = function
  | Spec_ref -> "spec-ref"
  | Spec_starved -> "spec-starved"
  | Scale -> "scale"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

let cores = Domain.recommended_domain_count ()

(* spec-starved is BENCH_pr10.json's region column: a budget at which
   most whole-body candidates fail, so region splitting, the outliner
   and Budget.credit run. *)
let hlo_config = function
  | Spec_starved ->
    { Hlo.Config.default with
      Hlo.Config.budget_percent = 15.0; inline_mode = Policy.Region;
      region_cold_fraction = 0.5 }
  | Spec_ref | Scale -> Hlo.Config.default

type program = {
  p_name : string;
  p_train : Minic.Compile.source list option;
      (** the profiling input; [None] profiles [p_ref] itself *)
  p_ref : Minic.Compile.source list;  (** what HLO, layout and sim see *)
}

(* The smoke run keeps two programs per SPEC workload. *)
let suite ~smoke =
  if smoke then List.filteri (fun i _ -> i < 2) Workloads.Suite.all
  else Workloads.Suite.all

let spec_program (b : Workloads.Suite.benchmark) =
  { p_name = b.Workloads.Suite.b_name;
    p_train = Some (Workloads.Suite.sources b ~input:Workloads.Suite.Train);
    p_ref = Workloads.Suite.sources b ~input:Workloads.Suite.Ref }

(* Only [scale] depends on the seed; the SPEC programs and their inputs
   are fixed, as in the paper. *)
let programs w ~seed ~smoke =
  match w with
  | Spec_ref | Spec_starved -> List.map spec_program (suite ~smoke)
  | Scale ->
    let shapes, routines =
      if smoke then ([ Prog_gen.Scale.Wide ], 200)
      else (Prog_gen.Scale.all_shapes, 1000)
    in
    List.map
      (fun shape ->
        { p_name = "scale/" ^ Prog_gen.Scale.shape_name shape; p_train = None;
          p_ref = Prog_gen.Scale.sources shape ~routines ~seed })
      shapes
