(** The evaluation subject of one benchmark, as the paper measured
    SPEC (§3): profiled on its train input, measured on [input]. *)
let of_benchmark ?(input = Workloads.Suite.Ref) (b : Workloads.Suite.benchmark) =
  Oracle.Evaluate.prepare ~name:b.Workloads.Suite.b_name
    ~train:(Workloads.Suite.compile b ~input:Workloads.Suite.Train)
    (Workloads.Suite.compile b ~input)
