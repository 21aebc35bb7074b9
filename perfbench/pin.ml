(* Regenerate pinned.json: every sim-large job unobserved, and every
   sim-observed job under both observers (which must not change cycles,
   prints or counters). Run it only on a commit whose simulated results
   are the reference: `perfbench pin > perfbench/pinned.json`. *)

module Ddsm = Ddsm_core.Ddsm
module Json = Ddsm_report.Json

let print ~root =
  let kernels = Kernels.load ~root in
  let progs = Sim.compile_all ~compile:Compile.plain kernels in
  let entry ~observed j =
    let prog = List.assoc j.Sim.kernel progs in
    let outcome obs =
      let rt = Sim.make_rt j () in
      let obs = obs rt in
      match Sim.run_with prog ~rt obs with
      | Ok o -> (o, obs)
      | Error d -> failwith (Sim.key j ^ ": " ^ Ddsm.Diag.to_string d)
    in
    let plain, _ = outcome (fun _ -> Sim.no_observers) in
    if not observed then Refs.of_outcome plain
    else
      let o, obs = outcome (Sim.observers j) in
      let r = Refs.of_outcome plain in
      let ro = Refs.of_outcome o in
      if ro <> r then failwith (Sim.key j ^ ": observers changed the simulated result");
      let s = Option.get obs.Sim.sanitize in
      { r with Refs.false_sharing = Some (List.length (Ddsm.Sanitize.false_sharing s)) }
  in
  let table =
    List.map (fun j -> (Sim.key j, Refs.to_json (entry ~observed:false j))) (Sim.workload_jobs `Large)
    @ List.map (fun j -> (Sim.key j, Refs.to_json (entry ~observed:true j))) (Sim.workload_jobs `Observed)
  in
  print_endline (Json.to_string (Json.Obj table))
