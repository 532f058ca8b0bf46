"""End-to-end campaign drivers reproducing the paper's evaluation sections."""

from .adblock_campaign import AdblockCampaignResult, BLOCKER_NAMES, run_adblock_campaign
from .h1h2_campaign import H1H2CampaignResult, run_h1h2_campaign
from .plt_campaign import (
    PLTCampaignResult,
    run_plt_campaign,
    run_plt_campaign_streaming,
)
from .profile_sweep import ProfileSweepResult, run_profile_sweep_campaign
from .validation import ValidationStudy, run_validation_study

__all__ = [
    "AdblockCampaignResult",
    "BLOCKER_NAMES",
    "run_adblock_campaign",
    "H1H2CampaignResult",
    "run_h1h2_campaign",
    "PLTCampaignResult",
    "run_plt_campaign",
    "run_plt_campaign_streaming",
    "ProfileSweepResult",
    "run_profile_sweep_campaign",
    "ValidationStudy",
    "run_validation_study",
]
