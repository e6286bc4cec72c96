"""Four agents staring at an empty node they were all sure about.

Everyone starts 95% convinced the object sits at node 1, stands on node 1,
and keeps seeing nothing. Under posterior sharing the incoming confidence
of the other three outweighs each agent's own eyes and the belief climbs
instead of collapsing; under likelihood sharing four independent "nothing
here" reports demolish it in one round.
"""

from beliefshare.simulate import CommMode, run_trial, self_doubt_config


def show(mode, steps=6):
    trace = run_trial(self_doubt_config(mode, scripted=True, steps=steps)).trace
    print(f"\n{mode.value}: belief that the object is at node 1")
    print("  t=-1  0.9500  (prior)")
    for t in range(steps):
        b = trace.object_beliefs[t, 0, 1]
        print(f"  t={t:2d}  {b:.6f}")


def main():
    print("all four agents pinned to node 1, observing 'not visible' every step")
    show(CommMode.POSTERIOR_SHARING)
    show(CommMode.LIKELIHOOD_SHARING)
    print("\nwith posterior sharing the agents' own evidence is overruled by")
    print("the returning echo of everyone's prior; with likelihood sharing")
    print("the odds drop by the honest factor 4 per observer per round.")


if __name__ == "__main__":
    main()
